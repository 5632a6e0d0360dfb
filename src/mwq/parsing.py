"""Text format for all domain values.

Grammar: integer literals, the variables `t` and `u`, operators + - * / ^,
and parentheses.  Rationals are written a/b; `/` is ordinary division, so
`1/144*t^2` means (1/144)*t^2.  Parsing is exact; nothing is ever rounded.

One grammar, evaluated as it is read in the target type, in one left-to-right
pass over the tokens of the whole argument, its frame (`y^2 =`, `u =`, `O`,
`( , )`) included; a character outside the grammar is a token refused where
the pass reaches it, so the first fault in reading order is reported.  Curves
and conics evaluate into a sparse map {(deg_u, deg_t): coefficient} of
monomials, where every divisor must be a nonzero constant; a power of a
single monomial is taken in closed form, any other power by repeated
products, and the map becomes a `BiPoly` or `UniPoly` once, at the end.  A
term's leading run of simple factors (numerals and variables, each maybe
raised to a numeral power, joined by `*` or by `/` and a nonzero numeral), as
in `4862648/3*u*t^2`, is folded into one monomial before any map is built.
Section coordinates evaluate in `RatFn`, where a divisor may be any nonzero
polynomial in t.  Conics and sections know only the name `t`: a `u` is
refused at its token.

Syntax errors carry the offending position.  Degrees are bounded while
reading, before anything is expanded: a power's exponent, and the degree in t
and in u of every power and product (and, in `RatFn`, of every quotient, sum
and difference) are at most POWER_CAP.  Parentheses and unary minus nest at
most DEPTH_CAP deep, so the recursive descent never runs out of stack.
Degree-bound and shape errors of the values themselves are raised separately
by the constructors of the target types.

Lattice expressions (`mwq.lattice.lattice_from_text`) and target norms read
their numerals with `parse_rational`: an optional sign, digits and an
optional `/digits`, nothing else.  An expression's rank, plus its number of
torsion factors, is at most RANK_CAP; each summand is checked against it by
the read that builds it, before its Gram or its copies are built.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .poly import T, UNIPOLY_ONE, BiPoly, RatFn, UniPoly, _canonical


POWER_CAP = 100
DEPTH_CAP = 100  # parentheses and unary minus, nested; each level is a few stack frames
RANK_CAP = 100  # a lattice expression's rank plus torsion factors


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos


class InputFormatError(ValueError):
    """Semantically invalid input (wrong variables, non-polynomial result, ...)."""


# ---------------------------------------------------------------------------
# tokenizer / recursive descent evaluating in the target type
# ---------------------------------------------------------------------------

_OPS = frozenset("+-*/^(),=")

# A token is an ASCII numeral, a name (an `isalpha` character, then `isalnum`
# ones), `**`, an operator, or any other character that is not a space,
# refused where the grammar reaches it.  `[^\W\d_]` is `isalnum` but not a
# decimal digit, which on ASCII text is `isalpha`; elsewhere it also takes a
# numeral character that is no letter, such as '²' or '½', which `_scan`
# splits off.
_TOKEN = re.compile(r"[0-9]+|[^\W\d_][^\W_]*|\*\*|\S")


def _scan(text: str, start: int = 0, end: int | None = None):
    """(token, position) for each token of text[start:end]: a match of
    `_TOKEN`, or, where it opens with a numeral character that is no letter,
    that character and then the tokens of the rest of the match."""
    for m in _TOKEN.finditer(text, start, len(text) if end is None else end):
        tok, pos = m[0], m.start()
        if tok[0].isnumeric() and not (tok[0].isalpha() or tok[0].isdecimal()):
            yield tok[0], pos
            yield from _scan(text, pos + 1, m.end())
        else:
            yield tok, pos


def _tokenize(text: str) -> list[str]:
    """The tokens of `text`, `**` read as `^`, then "" for its end.  On ASCII
    text the matches of `_TOKEN` are the tokens."""
    toks = _TOKEN.findall(text) if text.isascii() else [tok for tok, _pos in _scan(text)]
    if "**" in toks:
        toks = ["^" if tok == "**" else tok for tok in toks]
    toks.append("")
    return toks


def _outside(tok: str) -> bool:
    """Whether the token is a character outside the grammar."""
    return len(tok) == 1 and tok not in _OPS and not tok.isalpha() and tok not in "0123456789"


def _numeral(tok: str) -> bool:
    return tok.isdigit() and tok.isascii()  # `isdigit` alone takes '²' and '٣' too


class _Target(NamedTuple):
    """The type the parser evaluates in: how to build its values and how to
    combine them.  `ops["/"]` may reject a divisor the target cannot take;
    `degree(a)` is the largest degree in t or u of a value, and for the
    operators in `grows`, which may exceed the degrees of both operands,
    `grown(a, op, b)` is the one `a op b` would have, read before it is
    formed."""

    const: Callable  # integer literal -> value
    names: dict  # variable -> value
    ops: dict  # "+", "-" (unless `add_in` is set), "*", "/" -> (a, b) -> a op b
    neg: Callable
    power: Callable  # (base, exponent >= 0) -> base^exponent
    is_zero: Callable
    degree: Callable
    grows: str
    grown: Callable
    fold: Optional[dict] = None  # variable -> (deg_u, deg_t), where a term's simple factors fold
    add_in: Optional[Callable] = None  # (acc, op, b): acc op= b in place, for op + and -


_RESULT = {"+": "sum", "-": "difference", "*": "product", "/": "quotient"}


class _Parser:
    """Recursive descent that evaluates as it reads, in the given target.
    Tokens carry no position: an error finds its token's position by scanning
    the text again.  A character outside the grammar is refused where the pass
    takes it, whatever the grammar wanted there."""

    def __init__(self, text: str, target: _Target):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.target = target

    def take(self) -> str:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def error(self, message: str, k: int) -> ParseError:
        """The ParseError of token k."""
        tok = self.toks[k]
        if _outside(tok):
            message = f"unexpected character {tok!r}"
        positions = [pos for _tok, pos in _scan(self.text)] + [len(self.text)]
        return ParseError(message, positions[k])

    def frame(self, want: str, shape: str):
        """Take the frame token `want`, or refuse the argument's shape."""
        tok = self.take()
        if tok != want:
            if _outside(tok):
                raise self.error(f"unexpected character {tok!r}", self.i - 1)
            raise InputFormatError(shape)

    def enter(self, k: int):
        self.depth += 1
        if self.depth > DEPTH_CAP:
            raise self.error(f"nesting exceeds the cap: depth at most {DEPTH_CAP}", k)

    def expect_end(self):
        tok = self.take()
        if tok:
            raise self.error(f"trailing input {tok!r}", self.i - 1)

    def combine(self, a, op: str, b, k: int):
        """a op b, refused at the operator, token k, if its degree would exceed the cap."""
        tg = self.target
        if op == "/" and tg.is_zero(b):
            raise self.error("division by zero", k)
        if op in tg.grows and tg.grown(a, op, b) > POWER_CAP:
            raise self.error(f"{_RESULT[op]} exceeds the cap: degree at most {POWER_CAP}", k)
        return tg.ops[op](a, b)

    def expr(self):
        """Terms joined by `+` and `-`.  Where the target adds in place
        (monomial maps, whose sums and differences are never refused), the
        first term is copied once, at the first operator, and each further
        term is added into that copy."""
        acc = self.term()
        toks = self.toks
        add_in = self.target.add_in
        owned = False
        while (op := toks[self.i]) == "+" or op == "-":
            k = self.i
            self.i += 1
            if add_in is None:
                acc = self.combine(acc, op, self.term(), k)
                continue
            if not owned:
                acc, owned = dict(acc), True
            add_in(acc, op, self.term())
        return acc

    def term(self):
        """Factors joined by `*` and `/`, taken left to right.  In a target of
        monomial maps a leading run of simple factors is first folded into
        one monomial (`run`); the loop goes on from where the run stopped."""
        acc = self.run() if self.target.fold else None
        if acc is None:
            acc = self.factor()
        toks = self.toks
        while (op := toks[self.i]) == "*" or op == "/":
            k = self.i
            self.i += 1
            acc = self.combine(acc, op, self.factor(), k)
        return acc

    def run(self) -> Optional[dict]:
        """The map of the leading run of simple factors at the current token,
        or None, having taken nothing, where there is none.  The run is read
        into one coefficient, an integer numerator and denominator, and its
        degrees in u and t, and its map is built once.  Factors join by `*`,
        or by `/` and a nonzero numeral not raised to a power.  The run stops
        before a factor or an operator that is not simple or that `term` may
        refuse (a power or a product past the cap, a zero divisor), so that
        every fault is raised by `factor` and `combine`, at the same token, as
        if nothing had been folded."""
        toks = self.toks
        first = self.simple(self.i)
        if first is None:
            return None
        num, du, dt, i = first
        den = 1
        while True:
            op = toks[i]
            if op == "*":
                nxt = self.simple(i + 1)
                if nxt is None:
                    break
                fn, fu, ft, j = nxt
                if du + fu > POWER_CAP or dt + ft > POWER_CAP:
                    break
                num, du, dt, i = num * fn, du + fu, dt + ft, j
            elif op == "/" and _numeral(toks[i + 1]) and toks[i + 2] != "^":
                d = self.literal(i + 1)
                if not d:
                    break
                den, i = den * d, i + 2
            else:
                break
        self.i = i
        if not num:
            return {}
        return {(du, dt): num if den == 1 else Fraction(num, den)}

    def simple(self, k: int) -> Optional[tuple]:
        """(integer coefficient, deg_u, deg_t, next token) of a simple factor
        at token k, or None: an ASCII numeral or a variable of the target,
        with an optional `^` and an ASCII numeral at most POWER_CAP.  Each
        numeral is read by `literal`, which refuses one too long where
        `factor` would."""
        toks = self.toks
        tok = toks[k]
        key = self.target.fold.get(tok)
        if key is not None:
            c, (du, dt) = 1, key
        elif _numeral(tok):
            c, du, dt = self.literal(k), 0, 0
        else:
            return None
        if toks[k + 1] != "^":
            return c, du, dt, k + 1
        if not _numeral(toks[k + 2]):
            return None
        e = self.literal(k + 2)
        if e > POWER_CAP:  # a factor has degree at most 1
            return None
        return c ** e, du * e, dt * e, k + 3

    def factor(self):
        tg = self.target
        k = self.i
        if self.toks[k] == "-":
            self.i += 1
            self.enter(k)
            value = tg.neg(self.factor())
            self.depth -= 1
            return value
        base = self.atom()
        if self.toks[self.i] != "^":
            return base
        neg = self.toks[self.i + 1] == "-"
        k = self.i + 1 + neg  # the exponent
        self.i = k + 1
        if not _numeral(self.toks[k]):
            raise self.error("exponent must be an integer", k)
        exponent = self.literal(k)
        if exponent > POWER_CAP or exponent * tg.degree(base) > POWER_CAP:
            raise self.error(f"power exceeds the cap: exponent and degree at most {POWER_CAP}", k)
        power = tg.power(base, exponent)
        if neg:
            if tg.is_zero(power):
                raise self.error("zero to a negative power", k)
            power = tg.ops["/"](tg.const(1), power)
        return power

    def atom(self):
        tg = self.target
        k = self.i
        tok = self.take()
        if tok in tg.names:
            return tg.names[tok]
        if _numeral(tok):
            return tg.const(self.literal(k))
        if tok == "(":
            self.enter(k)
            inner = self.expr()
            self.depth -= 1
            if self.take() != ")":
                raise self.error("expected ')'", self.i - 1)
            return inner
        if tok == "u":
            raise InputFormatError(_NOT_IN_T)
        if tok[:1].isalpha():
            raise self.error(f"unknown name {tok!r}", k)
        raise self.error(f"unexpected token {tok!r}", k)

    def literal(self, k: int) -> int:
        """The integer literal of token k.  Python refuses to convert a string
        of more than `sys.get_int_max_str_digits()` digits; that is a fault of
        the input, reported at the literal."""
        digits = self.toks[k]
        try:
            return int(digits)
        except ValueError:
            raise self.error(f"integer literal of {len(digits)} digits is too long", k) from None


_NOT_IN_T = "expression must not involve u"


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str) -> Fraction:
    """An optional sign, digits and an optional `/digits`, as in `-3` or
    `1/6`.  Anything else, a zero denominator included, is a ValueError that
    names the text (or, past the digits `int()` converts, its length)."""
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise ValueError(f"bad number {text!r}: expected an integer or a/b")
    try:
        num, den = int(m[1]), int(m[2] or 1)
    except ValueError:  # more digits than int() converts
        raise ValueError(f"number of {len(text)} characters is too long") from None
    if not den:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def _evaluate(text: str, target: _Target, frame: tuple = (), shape: str = ""):
    """The value of `text` in `target`.  A text with an `=` token opens with
    the tokens `frame`, and is refused with `shape` where one is missing."""
    p = _Parser(text, target)
    if frame and "=" in p.toks:
        for want in frame:
            p.frame(want, shape)
    value = p.expr()
    p.expect_end()
    return value


def _repeated(one, mul, base, exponent: int):
    power = one
    for _ in range(exponent):
        power = mul(power, base)
    return power


# -- curves and conics: sparse maps {(deg_u, deg_t): nonzero coefficient} ----


def _monomials_add_in(acc: dict, op: str, b: dict) -> None:
    """acc + b or acc - b, in place in acc."""
    for k, c in b.items():
        if op == "-":
            c = -c
        if k not in acc:
            acc[k] = c
        elif s := acc[k] + c:
            acc[k] = s
        else:
            del acc[k]


def _monomials_neg(a: dict) -> dict:
    return {k: -c for k, c in a.items()}


def _monomials_mul(a: dict, b: dict) -> dict:
    if len(b) == 1 and 1 in b.values() or len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((au, at), x), = a.items()
        if x == 1:  # a monomial such as t or u^2 shifts the keys of b
            return {(au + bu, at + bt): y for (bu, bt), y in b.items()}
        return {(au + bu, at + bt): x * y for (bu, bt), y in b.items()}
    out: dict = {}
    for (au, at), x in a.items():
        for (bu, bt), y in b.items():
            k = (au + bu, at + bt)
            out[k] = out.get(k, 0) + x * y
    return {k: c for k, c in out.items() if c}


def _monomials_power(base: dict, exponent: int) -> dict:
    """A single monomial c u^i t^j in closed form, c^e u^(ie) t^(je); any
    other base by repeated products."""
    if len(base) == 1:
        ((du, dt), c), = base.items()
        return {(du * exponent, dt * exponent): c ** exponent}
    return _repeated({(0, 0): 1}, _monomials_mul, base, exponent)


def _monomials_divide(a: dict, b: dict) -> dict:
    if len(b) != 1 or (0, 0) not in b:
        raise InputFormatError("expression must be polynomial (no division by t or u)")
    d = b[0, 0]
    return {k: Fraction(c, d) for k, c in a.items()}


def _monomials_degree(a: dict) -> int:
    return max(map(max, a), default=-1)


_DEG_T = operator.itemgetter(1)


def _monomials_grown(a: dict, _op: str, b: dict) -> int:
    """The degree of the product a*b, the one operator that grows a map.  The
    largest key of a map leads with its degree in u."""
    if not (a and b):
        return -1
    return max(max(a)[0] + max(b)[0], max(map(_DEG_T, a)) + max(map(_DEG_T, b)))


_MONOMIALS = _Target(
    const=lambda n: {(0, 0): n} if n else {},
    names={"t": {(0, 1): 1}, "u": {(1, 0): 1}},
    ops={"*": _monomials_mul, "/": _monomials_divide},
    neg=_monomials_neg,
    power=_monomials_power,
    is_zero=operator.not_,
    degree=_monomials_degree,
    grows="*",  # a divisor must be a constant
    grown=_monomials_grown,
    fold={"t": (0, 1), "u": (1, 0)},
    add_in=_monomials_add_in,
)


def _row(terms) -> UniPoly:
    """The UniPoly of (deg_t, coefficient) pairs of distinct degrees, each
    coefficient an int or a Fraction, built from their integer numerators
    over the lcm of their denominators."""
    ratios = [(dt, c, 1) if type(c) is int else (dt, c.numerator, c.denominator)
              for dt, c in terms]
    den = math.lcm(*(d for _dt, _n, d in ratios))
    row = [0] * (1 + max((dt for dt, _n, _d in ratios), default=-1))
    for dt, n, d in ratios:
        row[dt] = n * (den // d)
    return _canonical(row, 1, den)


def _to_unipoly(a: dict) -> UniPoly:
    """The UniPoly of a sparse map without u."""
    return _row((dt, c) for (_du, dt), c in a.items())


def _to_bipoly(a: dict) -> BiPoly:
    """The BiPoly of a sparse map: one UniPoly per degree in u."""
    rows: list[list] = [[] for _ in range(1 + max((du for du, _dt in a), default=-1))]
    for (du, dt), c in a.items():
        rows[du].append((dt, c))
    return BiPoly(list(map(_row, rows)))


# a conic is a polynomial in t: its `u` is refused at that token, as a section's is
_CONIC = _MONOMIALS._replace(names={"t": _MONOMIALS.names["t"]}, fold={"t": (0, 1)})


# -- section coordinates: rational functions in t --------------------------


def _ratfn_grown(a: RatFn, op: str, b: RatFn) -> int:
    """A bound on the degrees of the numerator and denominator of `a op b`;
    a sum or difference has the denominator a.den * b.den."""
    an, ad, bn, bd = a.num.degree, a.den.degree, b.num.degree, b.den.degree
    if op == "*":
        return max(an + bn, ad + bd)
    if op == "/":
        return max(an + bd, ad + bn)
    return max(an + bd, bn + ad, ad + bd)


_RATFN = _Target(
    const=RatFn,
    names={"t": RatFn(T)},
    ops={"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv},
    neg=operator.neg,
    power=lambda base, exponent: _repeated(RatFn(1), operator.mul, base, exponent),
    is_zero=operator.attrgetter("is_zero"),
    degree=lambda a: max(a.num.degree, a.den.degree),
    grows="+-*/",
    grown=_ratfn_grown,
)


_SECTION_SHAPE = "section must be `O` or `(x, y)`"


def parse_bipoly(text: str) -> BiPoly:
    return _to_bipoly(_evaluate(text, _MONOMIALS))


def parse_unipoly(text: str) -> UniPoly:
    return _to_unipoly(_evaluate(text, _CONIC))


def parse_ratfn(text: str) -> RatFn:
    return _evaluate(text, _RATFN)


def parse_conic_rhs(text: str) -> UniPoly:
    """Accept `u = q(t)` or a bare polynomial in t."""
    return _to_unipoly(_evaluate(text, _CONIC, ("u", "="), "conic must have the form `u = q(t)`"))


def parse_curve_rhs(text: str) -> BiPoly:
    """Accept `y^2 = f(t, u)` or a bare polynomial in t, u."""
    return _to_bipoly(_evaluate(text, _MONOMIALS, ("y", "^", "2", "="),
                                "curve must have the form `y^2 = f(t, u)`"))


def parse_section(text: str):
    """Parse `O` (the zero section) or `(x(t), y(t))` into a SectionPoint."""
    from .surface import SectionPoint

    p = _Parser(text, _RATFN)
    if p.toks[0].lower() in ("o", "zero"):
        p.take()
        p.expect_end()
        return SectionPoint.zero()
    p.frame("(", _SECTION_SHAPE)
    x = p.expr()
    p.frame(",", "section must have two coordinates")
    y = p.expr()
    p.frame(")", _SECTION_SHAPE)
    p.expect_end()
    return SectionPoint(x, y)


# ---------------------------------------------------------------------------
# printers (round-trip exact with the parser)
# ---------------------------------------------------------------------------


# 1993 bits make fewer than 600 decimal digits, within the least limit (640)
# that `sys.set_int_max_str_digits` accepts
_STR_BITS = 1993


def _int_text(n: int) -> str:
    """The decimal digits of n at any size.  Python's str() refuses integers
    of more than `sys.get_int_max_str_digits()` digits, so a long n is split
    on a power of ten into two halves, each printed the same way."""
    if n < 0:
        return "-" + _int_text(-n)
    if n.bit_length() <= _STR_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # under half the digits of n (log10 2 > 3/10)
    hi, lo = divmod(n, 10**k)
    return _int_text(hi) + _int_text(lo).zfill(k)


def frac_text(q: Fraction) -> str:
    num = _int_text(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_int_text(q.denominator)}"


def _term_text(c: Fraction, k: int) -> str:
    if k == 0:
        return frac_text(c)
    v = "t" if k == 1 else f"t^{k}"
    if c == 1:
        return v
    if c == -1:
        return f"-{v}"
    return f"{frac_text(c)}*{v}"


def _signed_sum(terms: list[str]) -> str:
    """The terms joined by `+ ` and `- `, each sign read off the term's text;
    the zero sum is "0"."""
    if not terms:
        return "0"
    return " ".join([terms[0]] + [f"- {txt[1:]}" if txt.startswith("-") else f"+ {txt}"
                                  for txt in terms[1:]])


def poly_text(p: UniPoly) -> str:
    return _signed_sum([_term_text(c, k) for k in range(p.degree, -1, -1)
                        if (c := p.coeff(k)) != 0])


def ratfn_text(r: RatFn) -> str:
    if r.is_polynomial():
        return poly_text(r.num)
    return f"({poly_text(r.num)})/({poly_text(r.den)})"


def _u_term_text(c: UniPoly, k: int) -> str:
    if k == 0:
        return poly_text(c) if c.is_constant() else f"({poly_text(c)})"
    v = "u" if k == 1 else f"u^{k}"
    if c == UNIPOLY_ONE:
        return v
    if c.is_constant():
        return f"{frac_text(c.coeffs[0])}*{v}"
    return f"({poly_text(c)})*{v}"


def bipoly_text(f: BiPoly) -> str:
    return _signed_sum([_u_term_text(c, k) for k in range(f.degree_u, -1, -1)
                        if not (c := f.coeff_u(k)).is_zero])


def section_text(p) -> str:
    if p.is_zero:
        return "O"
    return f"({ratfn_text(p.x)}, {ratfn_text(p.y)})"
