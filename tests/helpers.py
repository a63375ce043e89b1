"""Shared test utilities: workspaces for the bundled systems and a seeded
random expression generator used by the property suites."""

import pathlib
import random
import re
from fractions import Fraction

from pdelin.expr import (Jet, add, exp_, mul, neg, pow_int, rat)
from pdelin.workspace import Workspace


# the reference documents of the nine bundled jobs, compared without the
# generated-at line
REFS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "refs"
GENERATED_AT = re.compile(r"^\s*generated-at = .*\n?", re.M)
SYSTEMS = ("burgers", "pipeline", "telegraph")
COMMANDS = ("detsys", "linearize", "verify")


def reference_document(command, system):
    return (REFS / f"{command}-{system}.txt").read_text(encoding="utf-8")


def burgers_workspace():
    return Workspace("xt", ["u1", "u2"])


def pipeline_workspace():
    return Workspace("xt", ["u"], ["p"])


def telegraph_workspace():
    return Workspace("xt", ["u1", "u2"])


def random_expression(rng, atoms, depth=4, allow_exp=True):
    """Random canonical expression over the given atoms.

    Exponent arguments are kept linear in at most one atom so probe values
    stay in range; integer powers are small and nonnegative.
    """
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.35:
            return rat(rng.randint(-4, 4), rng.randint(1, 3))
        return atoms[rng.randrange(len(atoms))]
    op = rng.random()
    if op < 0.40:
        return add(*[random_expression(rng, atoms, depth - 1, allow_exp)
                     for _ in range(rng.randint(2, 3))])
    if op < 0.75:
        return mul(*[random_expression(rng, atoms, depth - 1, allow_exp)
                     for _ in range(2)])
    if op < 0.87:
        return pow_int(random_expression(rng, atoms, min(depth - 1, 2), allow_exp),
                       rng.randint(1, 2) if depth > 3 else rng.randint(1, 3))
    if allow_exp:
        a = atoms[rng.randrange(len(atoms))]
        coeff = rat(rng.randint(-2, 2), rng.randint(1, 3))
        return exp_(mul(coeff, a))
    return neg(random_expression(rng, atoms, depth - 1, allow_exp))


def random_jets(ws, max_order=2):
    """All jets of the workspace dependents up to the given order (n=2)."""
    out = []
    names = [s.name for s in ws.independents]
    for dep in ws.dependents:
        out.append(Jet(dep, ()))
        for ox in range(max_order + 1):
            for ot in range(max_order + 1):
                if 0 < ox + ot <= max_order:
                    out.append(Jet(dep, ((names[0], ox), (names[1], ot))))
    return out


def seeded(seed):
    return random.Random(seed)


def assignment_for(exprs, rng, lo=-6, hi=6):
    """One random-rational assignment covering every atom of several
    expressions, positive where any of them needs positivity."""
    from pdelin.expr import atoms_of, walk, LogF, SPow

    need_positive = set()
    atoms = []
    seen = set()
    for e in exprs:
        for n in walk(e):
            if isinstance(n, (LogF, SPow)):
                src = n.arg if isinstance(n, LogF) else n.base
                for a in atoms_of(src):
                    need_positive.add(a)
        for a in atoms_of(e):
            if a not in seen:
                seen.add(a)
                atoms.append(a)
    asg = {}
    for a in atoms:
        while True:
            v = Fraction(rng.randint(lo, hi), rng.randint(1, 4))
            if v == 0:
                continue
            if a in need_positive and v <= 0:
                v = abs(v) + Fraction(1, 2)
            asg[a] = v
            break
    return asg


def probe_sides_agree(lhs, rhs, npoints=20, seed=0):
    """Independent numeric oracle: evaluate both sides separately at shared
    random rational points and compare the values (exact equality for
    rationals, enclosure overlap when intervals appear)."""
    from pdelin.errors import DomainError
    from pdelin.probe import Interval, numeric_probe

    rng = seeded(seed)
    hits = 0
    for _ in range(npoints * 4):
        if hits >= npoints:
            return True
        asg = assignment_for([lhs, rhs], rng)
        try:
            va = numeric_probe(lhs, asg)
            vb = numeric_probe(rhs, asg)
        except DomainError:
            continue
        if isinstance(va, Fraction) and isinstance(vb, Fraction):
            if va != vb:
                return False
        else:
            ia = va if isinstance(va, Interval) else Interval(va, va)
            ib = vb if isinstance(vb, Interval) else Interval(vb, vb)
            if ia.hi < ib.lo or ib.hi < ia.lo:
                return False
        hits += 1
    return hits >= npoints
