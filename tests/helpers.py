"""Shared test utilities: workspaces for the bundled systems, a seeded
random expression generator used by the property suites, and a soundness
oracle for the reducer's passes."""

import pathlib
import random
import re
from fractions import Fraction

from pdelin import conslaw
from pdelin.expr import (Add, ExpF, Jet, LogF, Mul, Rat, SPow, Sym,
                         add, atoms_of, div, exp_, is_zero, log_, monomials,
                         mul, neg, pow_int, rat, sym_pow, walk)
from pdelin.grammar import to_text
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


def check_reducer_steps(monkeypatch):
    """Wrap every `_pass_*` method of the reducer so that each step it takes
    must solve some equation the pass was given: under the rules after the
    step, that equation reduces to 0.  Returns the list that collects the
    name of the pass behind each step."""
    taken = []
    state = conslaw._ReducerState
    for name in [n for n in vars(state) if n.startswith("_pass_")]:
        def checked(self, live, name=name, original=getattr(state, name)):
            if not original(self, live):
                return False
            assert any(is_zero(self.rules.reduce(e)) for e, _, _ in live), \
                self.steps[-1]
            taken.append(name)
            return True
        monkeypatch.setattr(state, name, checked)
    return taken


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


def random_transcendental_expression(rng, atoms, exponents, depth=3):
    """Random canonical expression over the given atoms mixing
    `random_expression`'s polynomials and exps with logs, symbolic powers
    (exponents drawn from `exponents`), integer powers and reciprocals of
    logs.  Log arguments and symbolic-power bases are sums of a positive
    multiple of an atom and a positive rational, so they are positive
    wherever `random_assignment` puts the atoms; a reciprocal is taken only
    of a log whose argument exceeds 1."""
    def positive():
        a = atoms[rng.randrange(len(atoms))]
        return add(mul(rat(rng.randint(1, 3), rng.randint(1, 4)), a),
                   rat(rng.randint(1, 4), rng.randint(1, 4)))

    def sub():
        return random_transcendental_expression(rng, atoms, exponents,
                                                depth - 1)

    if depth == 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.4:
            return random_expression(rng, atoms, depth=1)
        if r < 0.7:
            return log_(positive())
        return sym_pow(positive(), exponents[rng.randrange(len(exponents))])
    op = rng.random()
    if op < 0.3:
        return add(*[sub() for _ in range(rng.randint(2, 3))])
    if op < 0.6:
        return mul(sub(), sub())
    if op < 0.7:
        return pow_int(sub(), 2)
    if op < 0.8:
        return pow_int(log_(add(positive(), rat(1))), -rng.randint(1, 2))
    return exp_(mul(rat(rng.randint(-2, 2), rng.randint(1, 3)), sub()))


def random_sum_with_denominators(rng, atoms, exponents):
    """Random canonical sum over the atoms with sums in denominators, exps,
    logs and symbolic powers (see `random_transcendental_expression`).  It
    holds the terms of `a*d/d - a` for a random `a` and a sum `d`, which
    cancel as a subset though the whole sum does not."""
    def den():
        return add(atoms[rng.randrange(len(atoms))], rat(rng.randint(1, 3)))

    a, d = random_expression(rng, atoms, depth=1), den()
    return add(random_transcendental_expression(rng, atoms, exponents, depth=2),
               div(random_expression(rng, atoms, depth=2), den()),
               div(mul(a, d), d), neg(a))


def to_sympy(sp, e):
    """The SymPy expression of a canonical expression built from rationals,
    symbols, jets, sums, products, integer and symbolic powers, exp and
    log; atoms become symbols named by their text."""
    if isinstance(e, Rat):
        return sp.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, (Sym, Jet)):
        return sp.Symbol(to_text(e))
    if isinstance(e, Add):
        return sp.Add(*[to_sympy(sp, f) for f in e.terms])
    if isinstance(e, Mul):
        (c, fmap), = monomials(e)
        return sp.Mul(sp.Rational(c.numerator, c.denominator),
                      *[sp.Pow(to_sympy(sp, k), n) for k, n in fmap.items()])
    if isinstance(e, SPow):
        return sp.Pow(to_sympy(sp, e.base), to_sympy(sp, e.expo))
    if isinstance(e, ExpF):
        return sp.exp(to_sympy(sp, e.arg))
    if isinstance(e, LogF):
        return sp.log(to_sympy(sp, e.arg))
    raise TypeError(f"no SymPy form for {e!r}")


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
