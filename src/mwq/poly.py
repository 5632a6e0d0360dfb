"""Exact polynomial and rational-function arithmetic over Q.

Coefficients are always `fractions.Fraction`; no floating point enters any
computation in this package.  Three value types live here:

  * UniPoly -- dense univariate polynomials (the variable is called t),
  * RatFn   -- reduced rational functions num/den with monic denominator,
  * BiPoly  -- polynomials in a second variable u with UniPoly coefficients.

Everything is immutable and safe to share between threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[int, Fraction]


def frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def frac_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact square root of a rational, or None if q is not a square in Q."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        return None
    return Fraction(rn, rd)


class UniPoly:
    """Dense polynomial in t over Q; the zero polynomial has degree -1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # immutability
        raise AttributeError("UniPoly is immutable")

    @staticmethod
    def const(c: Scalar) -> "UniPoly":
        return UniPoly([c])

    @staticmethod
    def of(*coeffs: Scalar) -> "UniPoly":
        """Build from coefficients listed low degree first."""
        return UniPoly(coeffs)

    # -- basic queries -------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    # -- arithmetic ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other)
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __add__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other)
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "UniPoly":
        return self + (-other if isinstance(other, UniPoly) else UniPoly.const(-frac(other)))

    def __rsub__(self, other) -> "UniPoly":
        return (-self) + other

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            c = frac(other)
            return UniPoly([c * a for a in self.coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "UniPoly"):
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly(), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.leading
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lead
            quo[k] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[k + j] -= c * b
        return UniPoly(quo), UniPoly(rem[: other.degree if other.degree > 0 else 0])

    def __floordiv__(self, other) -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "UniPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q

    def __call__(self, x):
        """Horner evaluation; works for Fraction, UniPoly, RatFn and BiPoly inputs."""
        if self.is_zero:
            return Fraction(0) if isinstance(x, (int, Fraction)) else x * 0
        acc = self.coeffs[-1] if isinstance(x, (int, Fraction)) else x * 0 + self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    # -- structure -----------------------------------------------------

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        return self * (1 / self.leading)

    def shift(self, a: Scalar) -> "UniPoly":
        """Return p(t + a)."""
        return self(UniPoly.of(a, 1))

    def reversed_at(self, k: int) -> "UniPoly":
        """Return t^k * p(1/t); requires k >= deg p."""
        if k < self.degree:
            raise ValueError("reversal order below degree")
        out = [Fraction(0)] * (k + 1)
        for i, c in enumerate(self.coeffs):
            out[k - i] = c
        return UniPoly(out)

    def truncate(self, n: int) -> "UniPoly":
        return UniPoly(self.coeffs[:n])

    def mul_trunc(self, other: "UniPoly", n: int) -> "UniPoly":
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a:
                for j, b in enumerate(other.coeffs[: n - i]):
                    if b:
                        out[i + j] += a * b
        return UniPoly(out)

    def inverse_series(self, n: int) -> "UniPoly":
        """Inverse modulo t^n by Newton iteration; constant term must be nonzero."""
        if self.is_zero or self.coeffs[0] == 0:
            raise ZeroDivisionError("series inverse needs a unit constant term")
        inv = UniPoly.const(1 / self.coeffs[0])
        prec = 1
        while prec < n:
            prec = min(2 * prec, n)
            inv = inv.mul_trunc(UniPoly.const(2) - self.mul_trunc(inv, prec), prec)
        return inv

    def trailing_order(self) -> int:
        """Order of vanishing at t = 0; a large sentinel for the zero polynomial."""
        if self.is_zero:
            return 10 ** 9
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise AssertionError

    def __repr__(self):
        from .parsing import poly_text

        return f"UniPoly({poly_text(self)})"


UNIPOLY_ZERO = UniPoly()
UNIPOLY_ONE = UniPoly.const(1)
T = UniPoly.of(0, 1)


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd; gcd(a, 0) = monic(a)."""
    while not b.is_zero:
        a, b = b, (a % b)
        if not b.is_zero:
            b = b.monic()  # keeps coefficient growth in check
    return a.monic() if not a.is_zero else a


def ord_at(p: UniPoly, place: UniPoly) -> int:
    """Multiplicity of the irreducible `place` in p; large sentinel for p = 0."""
    if p.is_zero:
        return 10 ** 9
    n = 0
    while True:
        q, r = divmod(p, place)
        if not r.is_zero:
            return n
        p = q
        n += 1


def squarefree_decompose(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Yun's algorithm: p = lc(p) * prod factor^mult with monic squarefree factors."""
    if p.is_zero:
        raise ValueError("squarefree decomposition of the zero polynomial")
    p = p.monic()
    if p.degree == 0:
        return []
    out: list[tuple[UniPoly, int]] = []
    g = poly_gcd(p, p.derivative())
    b = p.exact_div(g)
    c = p.derivative().exact_div(g)
    i = 1
    while b.degree > 0:
        d = c - b.derivative()
        fi = poly_gcd(b, d)
        if fi.degree > 0:
            out.append((fi, i))
        b = b.exact_div(fi)
        c = d.exact_div(fi)
        i += 1
    return out


def is_perfect_square(p: UniPoly) -> Optional[UniPoly]:
    """Return h with h^2 = p (leading coefficient of h positive), or None."""
    if p.is_zero:
        return UNIPOLY_ZERO
    if p.degree % 2:
        return None
    lead = frac_sqrt(p.leading)
    if lead is None:
        return None
    m = p.degree // 2
    h = [Fraction(0)] * (m + 1)
    h[m] = lead
    for k in range(1, m + 1):
        # match the coefficient of t^(2m-k)
        s = Fraction(0)
        for i in range(m - k + 1, m + 1):
            j = 2 * m - k - i
            if m - k < j <= m:
                s += h[i] * h[j]
        h[m - k] = (p.coeff(2 * m - k) - s) / (2 * lead)
    cand = UniPoly(h)
    if cand * cand == p:
        return cand
    return None


def interpolate(points: Sequence[tuple[Scalar, Scalar]], max_degree: int) -> Optional[UniPoly]:
    """Unique polynomial of degree <= max_degree through the points, else None.

    Uses the first max_degree+1 points for a Newton interpolant and checks the
    remainder; an inconsistent overdetermined set yields None.
    """
    pts = [(frac(a), frac(b)) for a, b in points]
    absc = [a for a, _ in pts]
    if len(set(absc)) != len(absc):
        raise ValueError("duplicate abscissae")
    if len(pts) < max_degree + 1:
        raise ValueError("not enough points")
    base = pts[: max_degree + 1]
    # Newton divided differences
    coef = [b for _, b in base]
    xs = [a for a, _ in base]
    for j in range(1, len(base)):
        for i in range(len(base) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = UniPoly.const(coef[-1])
    for i in range(len(base) - 2, -1, -1):
        poly = poly * UniPoly.of(-xs[i], 1) + coef[i]
    for a, b in pts:
        if poly(a) != b:
            return None
    return poly


def rational_roots(p: UniPoly) -> list[Fraction]:
    """All rational roots with multiplicity, sorted: the roots of the degree-1
    factors from `irreducible_factors`.  No integer derived from `p` is ever
    factored, so the cost does not grow with the prime factors of its
    coefficients."""
    if p.is_zero:
        raise ValueError("rational roots of the zero polynomial")
    roots: list[Fraction] = []
    for f, mult in irreducible_factors(p):
        if f.degree == 1:
            roots.extend([-f.coeffs[0]] * mult)
    return sorted(roots)


def irreducible_factors(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """Monic irreducible factors over Q with multiplicity (sympy-backed)."""
    if p.is_zero:
        raise ValueError("factoring the zero polynomial")
    if p.degree == 0:
        return []
    import sympy

    x = sympy.Symbol("x")
    expr = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], x)
    out = []
    for fac, mult in expr.factor_list()[1]:
        cs = [Fraction(c.p, c.q) for c in reversed(fac.all_coeffs())]
        out.append((UniPoly(cs).monic(), mult))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


class RatFn:
    """Rational function num/den with monic denominator and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly = UNIPOLY_ONE):
        if isinstance(num, (int, Fraction)):
            num = UniPoly.const(num)
        if isinstance(den, (int, Fraction)):
            den = UniPoly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            den = UNIPOLY_ONE
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num.exact_div(g), den.exact_div(g)
            lc = den.leading
            if lc != 1:
                num, den = num * (1 / lc), den * (1 / lc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFn is immutable")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_unipoly(self) -> UniPoly:
        if not self.is_polynomial():
            raise ValueError("not a polynomial")
        return self.num

    @staticmethod
    def _coerce(x) -> "RatFn":
        if isinstance(x, RatFn):
            return x
        if isinstance(x, UniPoly):
            return RatFn(x)
        if isinstance(x, (int, Fraction)):
            return RatFn(UniPoly.const(x))
        raise TypeError(f"cannot coerce {x!r} to RatFn")

    def __eq__(self, other) -> bool:
        try:
            other = RatFn._coerce(other)
        except TypeError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return RatFn(-self.num, self.den)

    def __add__(self, other):
        other = RatFn._coerce(other)
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-RatFn._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = RatFn._coerce(other)
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFn._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFn._coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return RatFn(self.den, self.num) ** (-n)
        return RatFn(self.num ** n, self.den ** n)

    def __call__(self, x: Scalar) -> Fraction:
        d = self.den(frac(x))
        if d == 0:
            raise ZeroDivisionError(f"pole at t = {x}")
        return self.num(frac(x)) / d

    def ord_at(self, place: UniPoly) -> int:
        """Valuation at an irreducible place (negative at poles)."""
        if self.is_zero:
            return 10 ** 9
        return ord_at(self.num, place) - ord_at(self.den, place)

    def __repr__(self):
        from .parsing import ratfn_text

        return f"RatFn({ratfn_text(self)})"


RATFN_ZERO = RatFn(UNIPOLY_ZERO)


class BiPoly:
    """Polynomial in u with UniPoly coefficients, stored low u-degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[UniPoly] = ()):
        cs = [c if isinstance(c, UniPoly) else UniPoly.const(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("BiPoly is immutable")

    @property
    def degree_u(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff_u(self, k: int) -> UniPoly:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else UNIPOLY_ZERO

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return BiPoly([-c for c in self.coeffs])

    def __add__(self, other: "BiPoly") -> "BiPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return BiPoly(out)

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if self.is_zero or other.is_zero:
            return BiPoly()
        out = [UNIPOLY_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return BiPoly(out)

    def eval_u(self, x):
        """Substitute u = x; x may be a Fraction, UniPoly or RatFn."""
        if isinstance(x, (int, Fraction)):
            x = UniPoly.const(x)
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return UNIPOLY_ZERO if isinstance(x, UniPoly) else RATFN_ZERO
        return acc

    def deriv_u(self) -> "BiPoly":
        return BiPoly([c * k for k, c in enumerate(self.coeffs)][1:])

    def deriv_t(self) -> "BiPoly":
        return BiPoly([c.derivative() for c in self.coeffs])

    def __repr__(self):
        from .parsing import bipoly_text

        return f"BiPoly({bipoly_text(self)})"


def resultant_u(f: BiPoly, g: BiPoly) -> UniPoly:
    """Resultant of f and g with respect to u (Sylvester determinant over Q[t],
    evaluated by fraction-free Bareiss elimination)."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial")
    m, n = f.degree_u, g.degree_u
    if m == 0 and n == 0:
        return UNIPOLY_ONE
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    rows: list[list[UniPoly]] = []
    fc = [f.coeff_u(m - j) for j in range(m + 1)]  # high to low
    gc = [g.coeff_u(n - j) for j in range(n + 1)]
    for i in range(n):
        rows.append([UNIPOLY_ZERO] * i + fc + [UNIPOLY_ZERO] * (size - m - 1 - i))
    for i in range(m):
        rows.append([UNIPOLY_ZERO] * i + gc + [UNIPOLY_ZERO] * (size - n - 1 - i))
    return _poly_det(rows)


def _poly_det(mat: list[list[UniPoly]]) -> UniPoly:
    """Bareiss fraction-free determinant of a matrix of polynomials."""
    n = len(mat)
    if n == 0:
        return UNIPOLY_ONE
    m = [row[:] for row in mat]
    sign = 1
    prev = UNIPOLY_ONE
    for k in range(n - 1):
        if m[k][k].is_zero:
            for r in range(k + 1, n):
                if not m[r][k].is_zero:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return UNIPOLY_ZERO
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]).exact_div(prev)
            m[i][k] = UNIPOLY_ZERO
        prev = m[k][k]
    return m[n - 1][n - 1] * sign
