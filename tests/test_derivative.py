"""Derivatives against a reference product rule: `total_derivative`,
`diff_atom` and `diff_kernel` build one sum over the monomials of every
product rule and derive each kernel through their caches; the reference
below builds one product per term, adds the terms, and caches nothing.
Both must give the same node."""

from helpers import pipeline_workspace, random_sum_with_denominators, seeded
from pdelin.expr import (ONE, ZERO, Add, ExpF, Fun, Jet, LogF, Mul, Rat, SPow,
                         Sym, add, clear_caches, diff_atom, diff_kernel,
                         exp_, from_monomial, is_zero, log_, monomials, mul,
                         pow_int, rat, sub, sym_pow, total_derivative, walk)
from pdelin.grammar import parse, to_text


def reference_derive(e, leaf, kernel=None):
    """Generic derivation with the product rule over the factors k^n of a
    product, each term its own node, and one `add` over the terms of a
    product or a sum; `leaf` and `kernel` as in `expr._derive`."""
    if kernel is not None and e == kernel:
        return ONE
    if isinstance(e, Rat):
        return ZERO
    if isinstance(e, (Sym, Jet)):
        r = leaf(e)
        return ZERO if r is None else r
    if isinstance(e, Fun):
        r = leaf(e)
        if r is not None:
            return r
        parts = []
        for i, a in enumerate(e.args):
            da = reference_derive(a, leaf, kernel)
            if not is_zero(da):
                parts.append(mul(da, e.bump(i)))
        return add(*parts) if parts else ZERO
    if isinstance(e, ExpF):
        return mul(reference_derive(e.arg, leaf, kernel), e)
    if isinstance(e, LogF):
        return mul(reference_derive(e.arg, leaf, kernel), pow_int(e.arg, -1))
    if isinstance(e, SPow):
        db = reference_derive(e.base, leaf, kernel)
        terms = []
        if not is_zero(db):
            terms.append(mul(e.expo, sym_pow(e.base, sub(e.expo, ONE)), db))
        dq = reference_derive(e.expo, leaf, kernel)
        if not is_zero(dq):
            terms.append(mul(dq, log_(e.base), e))
        return add(*terms) if terms else ZERO
    if isinstance(e, Mul):
        (c, fmap), = monomials(e)
        terms = []
        for k, n in fmap.items():
            df = reference_derive(k, leaf, kernel)
            if is_zero(df):
                continue
            if n != 1:
                df = mul(rat(n), pow_int(k, n - 1), df)
            rest = {j: m for j, m in fmap.items() if j is not k}
            terms.append(mul(df, from_monomial(c, rest))
                         if rest or c != 1 else df)
        return terms[0] if len(terms) == 1 else add(*terms)
    return add(*[reference_derive(t, leaf, kernel) for t in e.terms])


def reference_total_derivative(e, x):
    def leaf(a):
        if isinstance(a, Sym):
            return ONE if a == x else ZERO
        if isinstance(a, Fun):
            return None
        return a.bump(x.name)
    return reference_derive(e, leaf)


def reference_diff_atom(e, atom):
    def leaf(a):
        if a == atom:
            return ONE
        return None if isinstance(a, Fun) else ZERO
    return reference_derive(e, leaf)


ws = pipeline_workspace()
x, t = ws.independents
p = ws.lookup("p")
FUNS = [parse(text, ws) for text in
        ("f(x, u)", "g(x + t, exp(u))", "f_{2}(x, u_x/(u + 1))")]
ATOMS = [x, t, parse("u", ws), parse("u_x", ws), parse("u_t", ws)] + FUNS
EXPONENTS = [p, rat(1, 2), rat(-2, 3), sub(p, rat(1, 2))]


# a denominator whose derivative is a multiple of another denominator of
# its product, which cancels only when the derivative enters through its
# content and primitive part
CANCELLING = [parse(text, ws) for text in
              ("1/(x + 1)/(x^2 + 2*x + 3)", "exp(u)/(u + 2)^2/(u^2 + 4*u - 1)",
               "f(x, u)/(u_x + x)/(u_x^2 + 2*x*u_x + t)")]


def _expressions(seed, count):
    """The cancelling cases, then seeded sums with sum denominators, exps
    that merge in products, logs, symbolic powers and function kernels,
    and each one times a symbolic power of a sum and an exp, so products
    of kernels meet the product rule too."""
    rng = seeded(seed)
    out = list(CANCELLING)
    for _ in range(count):
        e = random_sum_with_denominators(rng, ATOMS, EXPONENTS)
        k = ATOMS[rng.randrange(len(ATOMS))]
        out += [e, mul(e, sym_pow(add(k, rat(2)), p), exp_(mul(rat(1, 2), k)))]
    return out


def _same(got, want, what):
    assert got == want, (what, to_text(got), to_text(want))


def _kernels(e):
    """The exp, log and symbolic-power kernels of `e` and the sums that
    are kernels of its monomials."""
    out = {n for n in walk(e) if isinstance(n, (ExpF, LogF, SPow))}
    out |= {k for n in walk(e) if isinstance(n, (Mul, Add))
            for _, fmap in monomials(n) for k in fmap if isinstance(k, Add)}
    return sorted(out, key=lambda k: k.key)


def test_total_derivative_matches_the_reference_product_rule():
    clear_caches()
    for e in _expressions(71, 10):
        for d in (x, t):
            _same(total_derivative(e, d), reference_total_derivative(e, d),
                  (to_text(e), d))


def test_total_derivatives_of_a_product_and_its_factors_share_kernels():
    # D(A*B) first, then D(A) and D(B): the kernels of A and B were derived
    # inside D(A*B), and their derivatives come from the cache
    clear_caches()
    a, b = _expressions(73, 1)[-2:]
    _same(total_derivative(mul(a, b), x),
          reference_total_derivative(mul(a, b), x), "D(A*B)")
    before = total_derivative.cache_info()
    for f in (a, b):
        _same(total_derivative(f, x), reference_total_derivative(f, x), f)
    assert total_derivative.cache_info().hits > before.hits


def test_diff_atom_matches_the_reference_product_rule():
    clear_caches()
    for e in _expressions(79, 12):
        for atom in ATOMS[2:]:
            _same(diff_atom(e, atom), reference_diff_atom(e, atom),
                  (to_text(e), atom))


def test_diff_kernel_matches_the_reference_product_rule():
    clear_caches()
    seen = set()
    for e in _expressions(83, 12):
        for k in _kernels(e):
            seen.add(type(k))
            _same(diff_kernel(e, k), reference_derive(e, lambda a: None, k),
                  (to_text(e), to_text(k)))
    assert seen == {ExpF, LogF, SPow, Add}
