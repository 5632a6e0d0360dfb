"""Text format for all domain values.

Grammar: integer literals, the variables `t` and `u`, operators + - * / ^,
and parentheses.  Rationals are written a/b; `/` is ordinary division, so
`1/144*t^2` means (1/144)*t^2.  Parsing is exact; nothing is ever rounded.

One grammar, evaluated as it is read in the target type: curves and conics
in `BiPoly`, where every divisor must be a nonzero constant; section
coordinates in `RatFn`, where a divisor may be any nonzero polynomial in t
and `u` is rejected.  The first fault in reading order is reported.

Syntax errors carry the offending position.  A power is checked before it
is expanded: its exponent, and its degree in t and in u, are at most
POWER_CAP.  Degree-bound and shape errors are raised separately by the
constructors of the target types.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import T, UNIPOLY_ONE, UNIPOLY_ZERO, BiPoly, RatFn, UniPoly


POWER_CAP = 100


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

_OPS = set("+-*/^(),=")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("num", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
        elif text[i : i + 2] == "**":
            toks.append(("op", "^", i))
            i += 2
        elif ch in _OPS:
            toks.append(("op", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    """Recursive descent that evaluates as it reads, in the target type given
    by `const` (integer literal -> value), `names` (variable -> value) and
    `divide` (which may reject a divisor the target cannot take)."""

    def __init__(self, text: str, const, names, divide):
        self.toks = _tokenize(text)
        self.i = 0
        self.const, self.names, self.divide = const, names, divide

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_end(self):
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", pos)

    def expr(self):
        acc = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                acc = acc + rhs if val == "+" else acc - rhs
            else:
                return acc

    def term(self):
        acc = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                if val == "*":
                    acc = acc * rhs
                else:
                    if rhs.is_zero:
                        raise ParseError("division by zero", pos)
                    acc = self.divide(acc, rhs)
            else:
                return acc

    def factor(self):
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return -self.factor()
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.take()
            nkind, nval, npos = self.take()
            neg = False
            if nkind == "op" and nval == "-":
                neg = True
                nkind, nval, npos = self.take()
            if nkind != "num":
                raise ParseError("exponent must be an integer", npos)
            exponent = _literal(nval, npos)
            if exponent > POWER_CAP or exponent * _degree(base) > POWER_CAP:
                raise ParseError(
                    f"power exceeds the cap: exponent and degree at most {POWER_CAP}", npos
                )
            power = self.const(1)
            for _ in range(exponent):
                power = power * base
            if neg:
                if power.is_zero:
                    raise ParseError("zero to a negative power", npos)
                power = self.divide(self.const(1), power)
            return power
        return base

    def atom(self):
        kind, val, pos = self.take()
        if kind == "num":
            return self.const(_literal(val, pos))
        if kind == "name":
            if val in self.names:
                return self.names[val]
            if val == "u":
                raise InputFormatError("expression must not involve u")
            raise ParseError(f"unknown name {val!r}", pos)
        if kind == "op" and val == "(":
            inner = self.expr()
            kind, val, pos = self.take()
            if not (kind == "op" and val == ")"):
                raise ParseError("expected ')'", pos)
            return inner
        raise ParseError(f"unexpected token {val!r}", pos)


def _literal(digits: str, pos: int) -> int:
    """The integer literal at `pos`.  Python refuses to convert a string of
    more than `sys.get_int_max_str_digits()` digits; that is a fault of the
    input, reported at the literal."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer literal of {len(digits)} digits is too long", pos) from None


def _degree(value) -> int:
    """The largest degree in t or u of a parsed value, a BiPoly or a RatFn."""
    if isinstance(value, RatFn):
        return max(value.num.degree, value.den.degree)
    return max((value.degree_u, *(c.degree for c in value.coeffs)))


def _evaluate(text: str, const, names, divide):
    p = _Parser(text, const, names, divide)
    value = p.expr()
    p.expect_end()
    return value


def _bipoly_const(n: int) -> BiPoly:
    return BiPoly([UniPoly.const(n)])


def _bipoly_divide(a: BiPoly, b: BiPoly) -> BiPoly:
    if b.degree_u > 0 or b.coeffs[0].degree > 0:
        raise InputFormatError("expression must be polynomial (no division by t or u)")
    inv = 1 / b.coeffs[0].coeff(0)
    return BiPoly([c * inv for c in a.coeffs])


_BIPOLY_NAMES = {"t": BiPoly([T]), "u": BiPoly([UNIPOLY_ZERO, UNIPOLY_ONE])}
_RATFN_NAMES = {"t": RatFn(T)}


def parse_bipoly(text: str) -> BiPoly:
    return _evaluate(text, _bipoly_const, _BIPOLY_NAMES, _bipoly_divide)


def parse_unipoly(text: str) -> UniPoly:
    b = parse_bipoly(text)
    if b.degree_u > 0:
        raise InputFormatError("expression must not involve u")
    return b.coeff_u(0)


def parse_ratfn(text: str) -> RatFn:
    return _evaluate(text, RatFn, _RATFN_NAMES, RatFn.__truediv__)


def parse_conic_rhs(text: str) -> UniPoly:
    """Accept `u = q(t)` or a bare polynomial in t."""
    if "=" in text:
        lhs, rhs = text.split("=", 1)
        if lhs.strip() != "u":
            raise InputFormatError("conic must have the form `u = q(t)`")
        text = rhs
    return parse_unipoly(text)


def parse_curve_rhs(text: str) -> BiPoly:
    """Accept `y^2 = f(t, u)` or a bare polynomial in t, u."""
    if "=" in text:
        lhs, rhs = text.split("=", 1)
        if lhs.replace(" ", "") not in ("y^2", "y**2"):
            raise InputFormatError("curve must have the form `y^2 = f(t, u)`")
        text = rhs
    return parse_bipoly(text)


def parse_section(text: str):
    """Parse `O` (the zero section) or `(x(t), y(t))` into a SectionPoint."""
    from .surface import SectionPoint

    stripped = text.strip()
    if stripped.lower() in ("o", "zero"):
        return SectionPoint.zero()
    if not (stripped.startswith("(") and stripped.endswith(")")):
        raise InputFormatError("section must be `O` or `(x, y)`")
    inner = stripped[1:-1]
    depth = 0
    split_at = None
    for i, ch in enumerate(inner):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            split_at = i
            break
    if split_at is None:
        raise InputFormatError("section must have two coordinates")
    # positions are reported within `text`: inner starts after the "("
    lead = len(text) - len(text.lstrip()) + 1
    coords = []
    for start, end in ((0, split_at), (split_at + 1, len(inner))):
        try:
            coords.append(parse_ratfn(inner[start:end]))
        except ParseError as exc:
            raise ParseError(exc.message, lead + start + exc.pos) from None
    return SectionPoint(*coords)


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


def poly_text(p: UniPoly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeff(k)
        if c == 0:
            continue
        txt = _term_text(c, k)
        if not parts:
            parts.append(txt)
        elif txt.startswith("-"):
            parts.append(f"- {txt[1:]}")
        else:
            parts.append(f"+ {txt}")
    return " ".join(parts)


def ratfn_text(r: RatFn) -> str:
    if r.is_polynomial():
        return poly_text(r.num)
    return f"({poly_text(r.num)})/({poly_text(r.den)})"


def bipoly_text(f: BiPoly) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for k in range(f.degree_u, -1, -1):
        c = f.coeff_u(k)
        if c.is_zero:
            continue
        if k == 0:
            txt = poly_text(c) if c.is_constant() else f"({poly_text(c)})"
        else:
            v = "u" if k == 1 else f"u^{k}"
            if c == UNIPOLY_ONE:
                txt = v
            elif c.is_constant():
                txt = f"{frac_text(c.coeffs[0])}*{v}"
            else:
                txt = f"({poly_text(c)})*{v}"
        if not parts:
            parts.append(txt)
        elif txt.startswith("-") and not txt.startswith("-("):
            parts.append(f"- {txt[1:]}")
        else:
            parts.append(f"+ {txt}")
    return " ".join(parts)


def section_text(p) -> str:
    if p.is_zero:
        return "O"
    return f"({ratfn_text(p.x)}, {ratfn_text(p.y)})"
