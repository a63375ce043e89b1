"""Expression text format.

Grammar (UTF-8, whitespace insignificant):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' exponent)?          # integer exponents only
    atom   := INT | '(' expr ')' | call | name
    call   := 'exp' '(' expr ')' | 'log' '(' expr ')'
            | 'pow' '(' expr ',' expr ')'
            | IDENT fderiv? '(' expr (',' expr)* ')'
    name   := IDENT jet-suffix?

Jet suffixes: `u1_xx`, `u1_xt` -- letters after `_` name independent
variables, repetition is order, letter order irrelevant.  Derivatives of
arbitrary functions: `f_{1}(...)`, `f_{1,2}(...)` by argument position.
Rationals are written `p/q`; `pow(base, p)` carries symbolic exponents.
Parentheses nest at most MAX_NESTING deep and an integer literal has at most
MAX_LITERAL_DIGITS digits; deeper or longer input is a ParseError.

`to_text` emits the same grammar deterministically and `parse(to_text(e))`
canonicalizes equal to `e`.
"""

from __future__ import annotations

from .errors import ParseError, UndeclaredIdentifierError
from .expr import (Add, ExpF, Fun, Jet, LogF, Rat, SPow, Sym, add, exp_,
                   is_integer, log_, monomials, mul, neg, pow_int, rat, sym_pow)

_LETTERS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_DIGITS = set("0123456789")

# input limits, checked by the lexer before the parser recurses: each level
# of parentheses costs the parser and the printer a few stack frames, and
# CPython's `int` refuses to read more digits than its default
# int_max_str_digits
MAX_NESTING = 64
MAX_LITERAL_DIGITS = 4300


class _Lexer:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._run()
        self.i = 0

    def _run(self):
        t, n = self.text, len(self.text)
        i = depth = 0
        while i < n:
            c = t[i]
            if c.isspace():
                i += 1
                continue
            if c in "+-*/^(),":
                if c == "(":
                    depth += 1
                    if depth > MAX_NESTING:
                        raise ParseError("parentheses nested deeper than "
                                         f"MAX_NESTING = {MAX_NESTING}", i)
                elif c == ")":
                    depth -= 1
                self.tokens.append((c, c, i))
                i += 1
                continue
            if c in _DIGITS:
                j = i
                while j < n and t[j] in _DIGITS:
                    j += 1
                if j - i > MAX_LITERAL_DIGITS:
                    raise ParseError("integer literal longer than "
                                     f"MAX_LITERAL_DIGITS = {MAX_LITERAL_DIGITS}"
                                     " digits", i)
                self.tokens.append(("int", t[i:j], i))
                i = j
                continue
            if c in _LETTERS:
                j = i
                while j < n and (t[j] in _LETTERS or t[j] in _DIGITS):
                    j += 1
                name = t[i:j]
                suffix = None
                if j < n and t[j] == "_":
                    k = j + 1
                    if k < n and t[k] == "{":
                        m = t.find("}", k)
                        if m < 0:
                            raise ParseError("unterminated '{' in derivative suffix", k)
                        suffix = ("positions", t[k + 1:m])
                        j = m + 1
                    else:
                        k2 = k
                        while k2 < n and t[k2] in _LETTERS:
                            k2 += 1
                        if k2 == k:
                            raise ParseError("expected letters after '_'", k)
                        suffix = ("letters", t[k:k2])
                        j = k2
                self.tokens.append(("ident", (name, suffix), i))
                i = j
                continue
            raise ParseError(f"unexpected character '{c}'", i)
        self.tokens.append(("end", "", n))

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok


class _Parser:
    def __init__(self, text, workspace):
        self.lx = _Lexer(text)
        self.ws = workspace

    def parse(self):
        e = self.expr()
        kind, _, pos = self.lx.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return e

    def expect(self, kind):
        k, v, pos = self.lx.next()
        if k != kind:
            raise ParseError(f"expected '{kind}'", pos)
        return v, pos

    # a sum is one `add` and a product one `mul` over all their operands, so
    # the result does not depend on their order in the text
    def expr(self):
        terms = [self.term()]
        while True:
            k, _, _ = self.lx.peek()
            if k == "+":
                self.lx.next()
                terms.append(self.term())
            elif k == "-":
                self.lx.next()
                terms.append(neg(self.term()))
            else:
                return terms[0] if len(terms) == 1 else add(*terms)

    def term(self):
        factors = [self.unary()]
        while True:
            k, _, _ = self.lx.peek()
            if k == "*":
                self.lx.next()
                factors.append(self.unary())
            elif k == "/":
                self.lx.next()
                factors.append(pow_int(self.unary(), -1))
            else:
                return factors[0] if len(factors) == 1 else mul(*factors)

    def unary(self):
        # a run of signs is read in a loop, not by recursion
        negate = False
        while self.lx.peek()[0] == "-":
            self.lx.next()
            negate = not negate
        e = self.power()
        return neg(e) if negate else e

    def power(self):
        e = self.atom()
        k, _, _ = self.lx.peek()
        if k != "^":
            return e
        self.lx.next()
        return pow_int(e, self.int_exponent())

    def int_exponent(self):
        k, v, pos = self.lx.next()
        if k == "int":
            return int(v)
        if k == "-":
            k2, v2, pos2 = self.lx.next()
            if k2 != "int":
                raise ParseError("expected integer exponent", pos2)
            return -int(v2)
        if k == "(":
            inner = self.expr()
            self.expect(")")
            if not is_integer(inner):
                raise ParseError("'^' requires an integer exponent; use pow(base, e)", pos)
            return int(inner.value)
        raise ParseError("expected integer exponent", pos)

    def atom(self):
        k, v, pos = self.lx.next()
        if k == "int":
            return rat(int(v))
        if k == "(":
            e = self.expr()
            self.expect(")")
            return e
        if k == "ident":
            name, suffix = v
            return self.ident(name, suffix, pos)
        raise ParseError("expected an expression", pos)

    def args(self):
        self.expect("(")
        out = [self.expr()]
        while True:
            k, _, _ = self.lx.peek()
            if k == ",":
                self.lx.next()
                out.append(self.expr())
            else:
                break
        self.expect(")")
        return out

    def ident(self, name, suffix, pos):
        nk, _, _ = self.lx.peek()
        is_call = nk == "(" or (suffix is not None and suffix[0] == "positions")
        if is_call:
            if suffix is None and name in ("exp", "log", "pow"):
                a = self.args()
                if name == "exp":
                    if len(a) != 1:
                        raise ParseError("exp takes one argument", pos)
                    return exp_(a[0])
                if name == "log":
                    if len(a) != 1:
                        raise ParseError("log takes one argument", pos)
                    return log_(a[0])
                if len(a) != 2:
                    raise ParseError("pow takes two arguments", pos)
                return sym_pow(a[0], a[1])
            if self.ws.lookup(name) is not None:
                raise ParseError(
                    f"'{name}' is declared and cannot name an arbitrary function", pos)
            a = self.args()
            dm = [0] * len(a)
            if suffix is not None:
                body = suffix[1].strip()
                if not body:
                    raise ParseError("empty derivative-position list", pos)
                for part in body.split(","):
                    part = part.strip()
                    if not part.isdecimal():
                        raise ParseError(f"bad derivative position '{part}'", pos)
                    p = int(part)
                    if not 1 <= p <= len(a):
                        raise ParseError(f"derivative position {p} out of range", pos)
                    dm[p - 1] += 1
            return Fun(name, tuple(a), tuple(dm))
        if suffix is not None:
            if not self.ws.is_dependent(name):
                raise UndeclaredIdentifierError(name, pos)
            orders = {}
            for ch in suffix[1]:
                s = self.ws.lookup(ch)
                if not (isinstance(s, Sym) and s.kind == "independent"):
                    raise UndeclaredIdentifierError(ch, pos)
                orders[ch] = orders.get(ch, 0) + 1
            return Jet(name, tuple(orders.items()))
        obj = self.ws.lookup(name)
        if obj is None:
            raise UndeclaredIdentifierError(name, pos)
        return obj


def parse(text, workspace):
    return _Parser(text, workspace).parse()


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


# `str` refuses an int past CPython's int_max_str_digits (at least 640), so
# a longer one is written in blocks of _BLOCK_DIGITS digits
_BLOCK_DIGITS = 600
_BLOCK = 10 ** _BLOCK_DIGITS
_SHORT_BITS = _BLOCK.bit_length() - 1


def _int_text(n):
    """The decimal text of an int n >= 0."""
    if n.bit_length() <= _SHORT_BITS:
        return str(n)
    blocks = []
    while n >= _BLOCK:
        n, r = divmod(n, _BLOCK)
        blocks.append(f"{r:0{_BLOCK_DIGITS}d}")
    return str(n) + "".join(reversed(blocks))


def _fmt_fraction(q):
    if q.denominator == 1:
        return _int_text(q.numerator)
    return f"{_int_text(q.numerator)}/{_int_text(q.denominator)}"


def _fmt_kernel(e):
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Jet):
        if not e.midx:
            return e.dep
        return e.dep + "_" + "".join(v * o for v, o in e.midx)
    if isinstance(e, Fun):
        pos = []
        for i, o in enumerate(e.dmidx):
            pos.extend([str(i + 1)] * o)
        head = e.name + ("_{" + ",".join(pos) + "}" if pos else "")
        return head + "(" + ", ".join(to_text(a) for a in e.args) + ")"
    if isinstance(e, ExpF):
        return "exp(" + to_text(e.arg) + ")"
    if isinstance(e, LogF):
        return "log(" + to_text(e.arg) + ")"
    if isinstance(e, SPow):
        return "pow(" + to_text(e.base) + ", " + to_text(e.expo) + ")"
    return "(" + to_text(e) + ")"  # a sum


def _fmt_power(base, n):
    s = _fmt_kernel(base)
    if n == 1:
        return s
    t = _int_text(abs(n))
    return f"{s}^{t}" if n > 0 else f"{s}^(-{t})"


def _fmt_monomial(e):
    """Format a non-Add canonical node; returns (sign_str, body)."""
    (coeff, fmap), = monomials(e)
    sign = "-" if coeff < 0 else ""
    coeff = abs(coeff)
    parts = []
    if coeff != 1 or not fmap:
        parts.append(_fmt_fraction(coeff))
    for k in sorted(fmap, key=lambda k: k.key):
        parts.append(_fmt_power(k, fmap[k]))
    return sign, "*".join(parts)


def to_text(e):
    if isinstance(e, Rat):
        q = e.value
        return _fmt_fraction(q) if q >= 0 else "-" + _fmt_fraction(-q)
    if isinstance(e, Add):
        out = []
        for i, t in enumerate(e.terms):
            sign, body = _fmt_monomial(t)
            if i == 0:
                out.append(sign + body)
            else:
                out.append(("- " if sign else "+ ") + body)
        return " ".join(out)
    sign, body = _fmt_monomial(e)
    return sign + body
