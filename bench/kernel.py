"""The `kernel-identities` workload: seeded random expressions over the jets
of the bundled pipeline workspace, with answers known by construction.

A task is a plan -- plain data drawn from the workload seed and the task
index -- for three random polynomials A, B, C whose monomials mix integer
powers, exp, log, symbolic powers ``pow(b, p)`` and denominators.  Running a
task asks the kernel for:

* ``is_zero`` of identities that hold by construction (distributivity, the
  product rule of ``total_derivative``, a ``substitute`` round trip) and of
  nonzero controls (an identity plus a known nonzero monomial);
* ``parse(to_text(e)) == e`` for the inputs and results;
* ``numeric_probe`` of A, B, C, of the expanded product and of the control
  at random rational points.  The benchmark combines the probed values of A,
  B and C with its own exact interval arithmetic: the control must come out
  nonzero with the sign of its monomial, and where every value is an exact
  rational the expansion must equal A*(B + C) exactly.  Where intervals
  appear, the same two facts must hold of the enclosures: an enclosure
  that misses the value it must contain is unsound, a wrong output of the
  probe, and fails the task.  A ``DomainError`` is a retry, allowed only
  where a log or symbolic-power base of the plan is not positive at that
  point.

The probe runs with mpmath's working precision raised to ENDPOINT_PREC.
At the default 53 bits, ``pdelin.probe._mpf_to_fraction`` rounds every
interval endpoint to a double, so an enclosure can shrink to a point that
misses its value (a defect of pdelin.probe, pinned by
``test_probe_endpoints_are_rounded_at_default_precision`` in
test_bench.py).  With the precision raised the endpoints convert exactly
and every enclosure must still contain its value.

The kernel's answers are compared with the known ones after the timed part.
Every pdelin function is looked up on its module at call time, so the traced
run's wrappers see these calls.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import mpmath

from pdelin import cli, errors, expr, grammar, probe

ATOMS = ("u", "u_x", "u_t", "u_xx", "u_xt", "x", "t")
# Twelve probe points give numeric_probe about 0.3 of a task's traced time
# (expr 0.63, grammar 0.05); six gave it under 0.2.
POINTS = 12         # probe points with a verdict wanted per task
MAX_ATTEMPTS = 16   # probe points tried at most per task
BATCH = 40          # tasks per cycle; task i has the structure of i % BATCH
# above the 5120 bits numeric_probe reaches at most (80 doubled past 4000)
ENDPOINT_PREC = 8192


class Context:
    """What the workload builds once, before the timed loop: the bundled
    workspace and its atoms."""

    def __init__(self):
        text = cli.bundled_path("pipeline").read_text(encoding="utf-8")
        self.ws = cli.load_workspace_text(text).workspace
        self.atoms = {n: grammar.parse(n, self.ws) for n in ATOMS}
        self.p = grammar.parse("p", self.ws)


# ---------------------------------------------------------------------------
# plans (pure data)
# ---------------------------------------------------------------------------


def _monomial(shape, rng):
    coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
    factors = []
    for _ in range(shape.randint(1, 2)):
        r = shape.random()
        a = shape.choice(ATOMS)
        if r < 0.45:
            factors.append(("pow", a, shape.randint(1, 2)))
        elif r < 0.60:
            factors.append(("exp", a, Fraction(rng.choice((-2, -1, 1, 2)),
                                               rng.randint(1, 3))))
        elif r < 0.72:
            factors.append(("log", a, 0))
        elif r < 0.84:
            factors.append(("spow", a, 0))
        else:
            factors.append(("inv", a, 0))
    return coeff, tuple(factors)


def _point(rng, polys):
    """Nonzero rational values for every atom and a non-integer value for
    p; atoms under log or pow(., p) are positive, so only a negative shift
    can leave their base outside the domain; no denominator vanishes."""
    positive = {a for poly in polys for _, fs in poly for kind, a, _ in fs
                if kind in ("log", "spow")}
    inv = [(a, s) for poly in polys for _, fs in poly
           for kind, a, s in fs if kind == "inv"]
    while True:
        values = {}
        for a in ATOMS:
            v = Fraction(rng.choice((-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6)),
                         rng.randint(1, 4))
            values[a] = abs(v) if a in positive else v
        if all(values[a] + s != 0 for a, s in inv):
            break
    values["p"] = Fraction(rng.choice((1, 3, 5, 7)), 2)
    return values


def make_plan(seed, index):
    """Task `index` of the workload seed.  The structure -- the kind, atom
    and degree of every factor, which factor is shifted and by how much, and
    the derivative direction -- cycles through BATCH fixed structures, so
    every cycle, whatever the seed, has the same mix of costs; the seed
    draws everything else: coefficients, exp scales, the substitution, the
    control and the points."""
    shape = random.Random(f"kernel-identities-shape:{index % BATCH}")
    rng = random.Random(f"kernel-identities:{seed}:{index}")
    polys = [[_monomial(shape, rng) for _ in range(n)] for n in (2, 2, 1)]
    # one log, symbolic-power or inverse factor gets a shifted base, the
    # task's single sum kernel (a denominator once differentiated)
    slots = [(i, j, k) for i, poly in enumerate(polys)
             for j, (_, fs) in enumerate(poly)
             for k, f in enumerate(fs) if f[0] in ("log", "spow", "inv")]
    if slots:
        i, j, k = shape.choice(slots)
        c, fs = polys[i][j]
        kind, a, _ = fs[k]
        fs = fs[:k] + ((kind, a, shape.choice((-1, 1, 2))),) + fs[k + 1:]
        polys[i][j] = (c, fs)
    polys = tuple(tuple(poly) for poly in polys)
    return {
        "index": index,
        "polys": polys,
        "direction": shape.choice(("x", "t")),
        "scale": rng.choice((Fraction(2), Fraction(3), Fraction(-1),
                             Fraction(1, 2))),
        "shift": Fraction(rng.randint(-2, 2)),
        "control": (Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3)),
                    rng.choice(ATOMS)),
        "points": tuple(_point(rng, polys) for _ in range(MAX_ATTEMPTS)),
    }


def plans(seed, start, count):
    return [make_plan(seed, i) for i in range(start, start + count)]


# ---------------------------------------------------------------------------
# running a task (the timed part: only kernel calls)
# ---------------------------------------------------------------------------


def _build_factor(ctx, kind, a, arg):
    atom = ctx.atoms[a]
    if kind == "pow":
        return expr.pow_int(atom, arg)
    if kind == "exp":
        return expr.exp_(expr.mul(expr.Rat(arg), atom))
    base = expr.add(atom, expr.rat(arg))
    if kind == "log":
        return expr.log_(base)
    if kind == "spow":
        return expr.sym_pow(base, ctx.p)
    return expr.pow_int(base, -1)


def _build(ctx, poly):
    return expr.add(*[expr.mul(expr.Rat(c), *[_build_factor(ctx, *f)
                                              for f in fs])
                      for c, fs in poly])


def run_task(ctx, plan):
    """Ask the kernel everything the task checks; returns (wall seconds,
    outputs).  An exception propagates to the caller, which counts it."""
    t0 = time.perf_counter()
    A, B, C = (_build(ctx, poly) for poly in plan["polys"])
    u = ctx.atoms["u"]
    d = ctx.ws.independent(plan["direction"])
    c, a = plan["control"]
    m = expr.mul(expr.Rat(c), ctx.atoms[a])
    lhs = expr.mul(A, expr.add(B, C))
    rhs = expr.add(expr.mul(A, B), expr.mul(A, C))
    ctrl = expr.add(lhs, m)
    dab = expr.total_derivative(expr.mul(A, B), d)
    rule = expr.sub(dab, expr.add(expr.mul(expr.total_derivative(A, d), B),
                                  expr.mul(A, expr.total_derivative(B, d))))
    a_, b_ = expr.Rat(plan["scale"]), expr.Rat(plan["shift"])
    fwd = expr.substitute(A, {u: expr.add(expr.mul(a_, u), b_)})
    back = expr.substitute(fwd, {u: expr.mul(expr.Rat(1 / plan["scale"]),
                                             expr.sub(u, b_))})
    zero = {
        "distributivity": expr.is_zero(expr.sub(lhs, rhs)),
        "product-rule": expr.is_zero(rule),
        "substitute-round-trip": expr.is_zero(expr.sub(back, A)),
        "distributivity-control": expr.is_zero(expr.sub(ctrl, rhs)),
        "product-rule-control": expr.is_zero(expr.add(rule, m)),
    }
    roundtrip = [grammar.parse(grammar.to_text(e), ctx.ws) == e
                 for e in (A, B, C, lhs, ctrl, fwd, dab)]
    probes = []
    verdicts = 0
    with mpmath.workprec(ENDPOINT_PREC):
        for values in plan["points"]:
            if verdicts == POINTS:
                break
            asg = {ctx.atoms[n]: v for n, v in values.items() if n != "p"}
            asg[ctx.p] = values["p"]
            try:
                probes.append([probe.numeric_probe(e, asg)
                               for e in (A, B, C, lhs, ctrl)])
                verdicts += 1
            except errors.DomainError:
                probes.append(None)
    return time.perf_counter() - t0, {"zero": zero, "roundtrip": roundtrip,
                                      "probes": probes}


# ---------------------------------------------------------------------------
# the known answers
# ---------------------------------------------------------------------------

KNOWN_ZERO = {"distributivity": True, "product-rule": True,
              "substitute-round-trip": True, "distributivity-control": False,
              "product-rule-control": False}


def _iv(v):
    return (v, v) if isinstance(v, Fraction) else (v.lo, v.hi)


def _iv_add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _iv_mul(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(ps), max(ps)


def _outside_domain(plan, values):
    return any(values[a] + s <= 0 for poly in plan["polys"] for _, fs in poly
               for kind, a, s in fs if kind in ("log", "spow"))


def _overlap(a, b):
    return a[0] <= b[1] and b[0] <= a[1]


def check_task(plan, out):
    """Compare a task's outputs with the answers known by construction.

    Returns (problems, (points attempted, points with verdicts, interval
    comparisons, unsound interval comparisons)).  At every point the
    control must be certified nonzero with the sign of its monomial; where
    all values are exact rationals, the expansion must equal A*(B + C) and
    the control must exceed it by exactly the monomial.  Where intervals
    appear, the same two facts are enclosure checks: enclosures that miss
    the exact value are unsound, and each such point is a problem."""
    problems = [f"is_zero {name} = {got}" for name, got in out["zero"].items()
                if got is not KNOWN_ZERO[name]]
    if not all(out["roundtrip"]):
        problems.append(f"parse(to_text(e)) != e: {out['roundtrip']}")
    c, a = plan["control"]
    useful = intervals = unsound = 0
    for values, got in zip(plan["points"], out["probes"]):
        if got is None:
            if not _outside_domain(plan, values):
                problems.append(f"DomainError inside the domain at {values}")
            continue
        useful += 1
        known = c * values[a]
        va, vb, vc, vlhs, vctrl = (_iv(v) for v in got)
        product = _iv_mul(va, _iv_add(vb, vc))
        diff = (vctrl[0] - product[1], vctrl[1] - product[0])
        if not (diff[0] > 0 if known > 0 else diff[1] < 0):
            problems.append(f"probe: control not certified nonzero at {values}")
        exact = all(isinstance(v, Fraction) for v in got)
        agree = _overlap(vlhs, product) and diff[0] <= known <= diff[1]
        if exact and not agree:
            problems.append(f"probe: exact values contradict the identity "
                            f"at {values}")
        elif not exact:
            intervals += 1
            if not agree:
                unsound += 1
                problems.append(f"probe: unsound enclosure at {values}")
    return problems, (len(out["probes"]), useful, intervals, unsound)
