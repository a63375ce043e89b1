"""The scalar pipeline-flow equation u_t u_xx + u_x^p = 0 with a symbolic
exponent p: one dependent variable, so the linearization is a contact
transformation.  The multipliers v(u_x, t) are first verified against the
Euler-operator determining equations, then the mapping (z1, z2, w) =
(u_x, t, x u_x - u) with contact data (w_X, w_T) = (x, -u_t) is extracted
and the equation maps to X^p w_XX - w_T = 0, all identities exact in p.

Run:  python3 demos/pipeline_contact.py
"""

from pdelin import Workspace, parse, to_text
from pdelin.conslaw import MultiplierFamily, verify_multipliers
from pdelin.constraints import LinearConstraints
from pdelin.expr import is_zero
from pdelin.jets import PdeSystem
from pdelin.linearize import (augmented_identity, build_mapping,
                              family_fluxes, match_multiplier_form,
                              target_system)
from pdelin.mapping import apply_transformation, check_contact_condition

ws = Workspace("xt", ["u"], ["p"])
system = PdeSystem(ws, [parse("u_t*u_xx + pow(u_x, p)", ws)])
print("equation:", to_text(system.equations[0]), "= 0")

X, T = ws.declare_coordinate("X"), ws.declare_coordinate("T")
constraint = LinearConstraints({"v": (X, T)}, [parse(
    "v_{2}(X,T) + pow(X,p)*v_{1,1}(X,T) + 2*p*pow(X,p-1)*v_{1}(X,T)"
    " + p*(p-1)*pow(X,p-2)*v(X,T)", ws)])
family = MultiplierFamily(
    components=[parse("v(u_x, t)", ws)], function_names=["v"],
    coordinates=(X, T), definitions=(parse("u_x", ws), ws.independents[1]),
    constraints=constraint)

print("\nmultiplier family: L1 = v(u_x, t) with")
print("  ", to_text(constraint.rows[0]), "= 0")
rep = verify_multipliers(system, family)
_, flux_residual = family_fluxes(system, family)
print("verified:", rep.ok, " flux residual:", to_text(flux_residual))

cand = match_multiplier_form(family, system)
print("\nJ =", to_text(cand.J), "  Q =", to_text(cand.Q[0][0]))
rec = augmented_identity(cand)
print("W =", to_text(rec.W[0]), "  residual:", to_text(rec.residual))

tr = build_mapping(cand)
print("\ncontact transformation:")
print("  z1 =", to_text(tr.phi[0]), "  z2 =", to_text(tr.phi[1]))
print("  w  =", to_text(tr.psi[0]))
print("  rho =", [to_text(r) for r in tr.rho],
      " contact condition:", check_contact_condition(tr))

target = target_system(cand)
print("\ntarget:", to_text(target.equations[0]), "= 0")
mapped = apply_transformation(system, tr)
print("transformed:", to_text(mapped.equations[0]), "= 0")
assert is_zero(rec.residual)
