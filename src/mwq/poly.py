"""Exact polynomial and rational-function arithmetic over Q.

Coefficients are rationals, held exactly: a UniPoly is a rational content,
kept as a reduced pair of ints, times a primitive integer coefficient list, so
its arithmetic runs on Python ints alone; a `fractions.Fraction` is built only
where the API hands out a coefficient, a value or a root.  No floating point
enters any computation in this package.  Three value types live here:

  * UniPoly -- dense univariate polynomials (the variable is called t),
  * RatFn   -- reduced rational functions num/den with monic denominator,
  * BiPoly  -- polynomials in a second variable u with UniPoly coefficients.

Every gcd is the heuristic gcd GCDHEU on the primitive parts A and B
(`_gcd_parts`): one integer gcd of A(xi) and B(xi), read back as symmetric
xi-adic digits, gives a candidate, accepted only if it divides A and B
exactly in Z[t].  For xi >= 2 min(|A|, |B|) + 2 an accepted candidate is the
gcd, so the result is exact, not probable; a rejected one raises xi, and the
retries end because a reading is spoilt only by a divisor of the resultant
of the cofactors.  The exact divisions also give the cofactors, which Yun's
decomposition, `split_by` and `RatFn` take instead of dividing again.

Everything is immutable and safe to share between threads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, takewhile
from typing import Iterable, Iterator, Optional, Sequence, Union

Scalar = Union[int, Fraction]


class InternalInconsistencyError(RuntimeError):
    """An exact identity that must hold failed; signals a bug, never bad input."""


class UniPoly:
    """Dense polynomial in t over Q; the zero polynomial has degree -1.

    A polynomial is stored as a rational content `_n / _d` times a primitive
    integer coefficient tuple `_p`, listed low degree first, whose gcd is 1 and
    whose leading entry is positive.  The content is a reduced pair of ints
    with `_d > 0`; the zero polynomial is `_n, _d, _p = 0, 1, ()`.  The form is
    canonical, so equality and hashing compare (`_n`, `_d`, `_p`), and all
    arithmetic runs on Python ints: a `Fraction` is built only by `coeffs`,
    `coeff` and evaluation, which return one, and for a rational root.
    """

    __slots__ = ("_n", "_d", "_p")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        ints = [c.numerator * (den // c.denominator) for c in cs]
        _init_canonical(self, ints, 1, den)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("UniPoly is immutable")

    @staticmethod
    def const(c: Scalar) -> "UniPoly":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return _make(c.numerator, c.denominator, (1,)) if c else UNIPOLY_ZERO

    @staticmethod
    def of(*coeffs: Scalar) -> "UniPoly":
        """Build from coefficients listed low degree first."""
        return UniPoly(coeffs)

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, low degree first (built on demand)."""
        n, d = self._n, self._d
        return tuple(Fraction(n * a, d) for a in self._p)

    @property
    def degree(self) -> int:
        return len(self._p) - 1

    @property
    def is_zero(self) -> bool:
        return not self._p

    def coeff(self, i: int) -> Fraction:
        return Fraction(self._n * self._p[i], self._d) if 0 <= i < len(self._p) else Fraction(0)

    def is_constant(self) -> bool:
        return len(self._p) <= 1

    # -- arithmetic ----------------------------------------------------
    # Each operation tests for a UniPoly operand first: a test against
    # Fraction, an ABC-registered Rational, costs a Python-level call.

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            if not isinstance(other, (int, Fraction)):
                return False
            other = UniPoly.const(other)
        return self._n == other._n and self._d == other._d and self._p == other._p

    def __hash__(self):
        return hash((self._n, self._d, self._p))

    def __neg__(self) -> "UniPoly":
        return _make(-self._n, self._d, self._p)

    def __add__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = UniPoly.const(other)
        if not other._p:
            return self
        if not self._p:
            return other
        # common denominator of the two contents, then one integer sum
        n1, d1, n2, d2 = self._n, self._d, other._n, other._d
        g = math.gcd(d1, d2)
        f1, f2 = n1 * (d2 // g), n2 * (d1 // g)
        h = math.gcd(f1, f2)
        f1, f2 = f1 // h, f2 // h
        a, b = self._p, other._p
        if len(a) < len(b):
            a, b, f1, f2 = b, a, f2, f1
        out = [f1 * x for x in a]
        for i, y in enumerate(b):
            out[i] += f2 * y
        return _canonical(out, h, d1 // g * d2)

    __radd__ = __add__

    def __sub__(self, other) -> "UniPoly":
        return self + (-other if isinstance(other, UniPoly) else UniPoly.const(-other))

    def __rsub__(self, other) -> "UniPoly":
        return (-self) + other

    def __mul__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other or not self._p:
                return UNIPOLY_ZERO
            return _scaled(self, other.numerator, other.denominator)
        a, b = self._p, other._p
        if not a or not b:
            return UNIPOLY_ZERO
        n, d = _product(self._n, self._d, other._n, other._d)
        # a constant's primitive part is (1,); otherwise convolve.  By Gauss's
        # lemma the product of primitive polynomials is primitive.
        if len(a) == 1:
            return _make(n, d, b)
        if len(b) == 1:
            return _make(n, d, a)
        return _make(n, d, tuple(_convolve(a, b)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = UNIPOLY_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __divmod__(self, other: "UniPoly"):
        if not isinstance(other, UniPoly):
            other = UniPoly.const(other)
        b = other._p
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        a = self._p
        db = len(b) - 1
        dq = len(a) - 1 - db
        if dq < 0:
            return UNIPOLY_ZERO, self
        if db == 0:
            return _scaled(self, other._d, other._n), UNIPOLY_ZERO
        # integer pseudo-division: scale * a = quo * b + rem, where scale is a
        # product of divisors of lead(b), taken only where a step needs it
        rem = list(a)
        quo = [0] * (dq + 1)
        lead = b[-1]
        scale = 1
        for k in range(dq, -1, -1):
            r = rem[k + db]
            if not r:
                continue
            if r % lead:
                s = lead // math.gcd(r, lead)
                scale *= s
                r *= s
                for i in range(k + db):
                    rem[i] *= s
                for i in range(k + 1, dq + 1):
                    quo[i] *= s
            q = r // lead
            quo[k] = q
            for j in range(db):
                rem[k + j] -= q * b[j]
        n, d = self._n, self._d
        return (
            _canonical(quo, n * other._d, d * other._n * scale),
            _canonical(rem[:db], n, d * scale),
        )

    def __floordiv__(self, other) -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "UniPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("inexact polynomial division")
        return q

    def __call__(self, x: Scalar) -> Fraction:
        """Horner evaluation at a rational n/d, in integers over powers of d."""
        p = self._p
        if not p:
            return Fraction(0)
        n, d = x.numerator, x.denominator
        acc = p[-1]
        dk = 1
        for a in p[-2::-1]:
            dk *= d
            acc = acc * n + a * dk
        return Fraction(self._n * acc, self._d * dk)

    # -- structure -----------------------------------------------------

    def derivative(self) -> "UniPoly":
        return _canonical([i * a for i, a in enumerate(self._p)][1:], self._n, self._d)

    def monic(self) -> "UniPoly":
        if not self._p:
            return self
        return _make(1, self._p[-1], self._p)

    def jet(self, t0: int) -> tuple[tuple[int, int, int], int]:
        """p(t0 + s) mod s^3 at an integer t0: the coefficients of 1, s and s^2
        as integers over one positive denominator, the content's.  With P the
        primitive part they are the content's numerator times P(t0), P'(t0)
        and P''(t0) / 2, from one Horner pass."""
        v0 = v1 = v2 = 0
        for x in reversed(self._p):
            v2 = v2 * t0 + v1
            v1 = v1 * t0 + v0
            v0 = v0 * t0 + x
        n = self._n
        return (n * v0, n * v1, n * v2), self._d

    def __repr__(self):
        from .parsing import poly_text

        return f"UniPoly({poly_text(self)})"


_set_num = UniPoly._n.__set__
_set_den = UniPoly._d.__set__
_set_primitive = UniPoly._p.__set__


def _make(n: int, d: int, p: tuple[int, ...]) -> UniPoly:
    """A UniPoly from a canonical content n/d and primitive part p."""
    poly = object.__new__(UniPoly)
    _set_num(poly, n)
    _set_den(poly, d)
    _set_primitive(poly, p)
    return poly


def _init_canonical(poly: UniPoly, ints: list[int], num: int, den: int) -> None:
    """Set `poly` to (num/den) * sum ints[i] t^i, where `ints` (consumed) may
    carry trailing zeros, a common factor and a negative leading entry, and
    num/den (den != 0) need be neither reduced nor of positive denominator."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        _set_num(poly, 0)
        _set_den(poly, 1)
        _set_primitive(poly, ())
        return
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if den < 0:
        num, den = -num, -den
    num *= g
    h = math.gcd(num, den)
    _set_num(poly, num // h)
    _set_den(poly, den // h)
    _set_primitive(poly, tuple(ints) if g == 1 else tuple(x // g for x in ints))


def _canonical(ints: list[int], num: int, den: int) -> UniPoly:
    poly = object.__new__(UniPoly)
    _init_canonical(poly, ints, num, den)
    return poly


def _product(n1: int, d1: int, n2: int, d2: int) -> tuple[int, int]:
    """The reduced n/d = (n1/d1) (n2/d2), d > 0, of two reduced ratios with
    d1 > 0 and d2 != 0, cross-cancelled as `Fraction` multiplies."""
    if d2 < 0:
        n2, d2 = -n2, -d2
    g1, g2 = math.gcd(n1, d2), math.gcd(n2, d1)
    return (n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1)


def _scaled(p: UniPoly, n: int, d: int) -> UniPoly:
    """(n/d) p for a nonzero p and a reduced nonzero n/d, d != 0."""
    return _make(*_product(p._n, p._d, n, d), p._p)


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The coefficients of the product of two integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


UNIPOLY_ZERO = UniPoly()
UNIPOLY_ONE = UniPoly.const(1)
T = UniPoly.of(0, 1)


def poly_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd; gcd(a, 0) = monic(a).  See `_gcd_parts` for how."""
    return _gcd_parts(a, b)[0]


def _gcd_parts(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """(g, a/g, b/g) for the monic gcd g of a and b, by the heuristic gcd
    GCDHEU (Char-Geddes-Gonnet 1989; Geddes-Czapor-Labahn 1992, 7.7) on the
    primitive parts A and B; gcd(a, 0) = monic(a), and gcd(0, 0) = 0 with
    zero cofactors.

    With M = min(|A|, |B|) (max-norms) and xi >= 2M + 2, take the integer
    gamma = gcd(A(xi), B(xi)), read it back as the polynomial G of its
    symmetric xi-adic digits (`_xi_digits`, each of absolute value at most
    xi/2, so G(xi) = gamma), and accept C = pp(G) only if it divides A and B
    exactly in Z[t]; the quotients are the cofactors.

    Correctness.  An accepted C is the gcd H of A and B.  C divides H, so
    H = C h with h in Z[t] (Gauss), and H(xi) divides gamma = cont(G) C(xi),
    so h(xi) divides cont(G), which is at most xi/2.  Every root z of h is
    a root of the one of A, B of norm M, so |z| < 1 + M (Cauchy), and if h
    had degree d >= 1, |h(xi)| >= prod |xi - z| > (xi - 1 - M)^d >= xi/2.
    So h is a unit.  (gamma != 0 for the same reason: that input has no
    root at xi.)

    Termination.  With A = H A', B = H B', gamma = |H(xi)| k for
    k = gcd(A'(xi), B'(xi)), the integer that spoils the reading; k divides
    the resultant R of the coprime cofactors A', B' (R = U A' + V B' with
    U, V in Z[t]).  Once xi > 2 |R| |H|, the digits of gamma are those of
    +-k H, so C = H is read and accepted.  A rejected candidate sets
    xi <- floor(xi * 73794 / 27011) (a factor near 1 + sqrt 3, as in GCL),
    so xi passes that bound after finitely many tries.  The start
    xi = 2M + 29 is past the correctness bound; no retry cap is needed."""
    p, q = a._p, b._p
    if not p:
        return (b.monic(), a, _cofactor(b, (1,), q[-1])) if q else (a, a, a)
    if not q:
        return a.monic(), _cofactor(a, (1,), p[-1]), b
    if len(p) == 1 or len(q) == 1:
        return UNIPOLY_ONE, a, b
    xi = 2 * min(max(map(abs, p)), max(map(abs, q))) + 29
    while True:
        digits = _xi_digits(math.gcd(_horner(p, xi), _horner(q, xi)), xi)
        if len(digits) == 1:  # pp(G) = 1 divides both
            return UNIPOLY_ONE, a, b
        if len(digits) <= min(len(p), len(q)):
            c = math.gcd(*digits)
            if digits[-1] < 0:
                c = -c
            g = tuple(x // c for x in digits) if c != 1 else tuple(digits)
            qa = _quotient(p, g)
            if qa is not None:
                qb = _quotient(q, g)
                if qb is not None:
                    lead = g[-1]
                    return _make(1, lead, g), _cofactor(a, qa, lead), _cofactor(b, qb, lead)
        xi = xi * 73794 // 27011


def _horner(p: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _xi_digits(gamma: int, xi: int) -> list[int]:
    """The symmetric xi-adic digits of gamma > 0, low first: each digit d
    has -xi/2 < d <= xi/2, and sum d_i xi^i = gamma."""
    half = xi // 2
    digits = []
    while gamma:
        gamma, d = divmod(gamma, xi)
        if d > half:
            d -= xi
            gamma += 1
        digits.append(d)
    return digits


def _quotient(a: Sequence[int], c: Sequence[int]) -> Optional[tuple[int, ...]]:
    """a / c in Z[t] for integer coefficient lists, c with a nonzero leading
    entry, or None when c does not divide a; stops at the first remainder
    coefficient the leading entry of c does not divide."""
    dc = len(c) - 1
    dq = len(a) - 1 - dc
    if dq < 0:
        return None
    rem = list(a)
    quo = [0] * (dq + 1)
    lead = c[-1]
    for k in range(dq, -1, -1):
        x, r = divmod(rem[k + dc], lead)
        if r:
            return None
        if x:
            quo[k] = x
            for j in range(dc):
                rem[k + j] -= x * c[j]
    if any(rem[:dc]):
        return None
    return tuple(quo)


def _cofactor(p: UniPoly, quo: tuple[int, ...], lead: int) -> UniPoly:
    """p / g for a nonzero p and the monic g = G / lead, given the primitive
    quotient quo = P / G with a positive leading entry (G primitive, lead > 0)."""
    return _make(*_product(p._n, p._d, lead, 1), quo)


def ord_at(p: UniPoly, place: UniPoly) -> int:
    """The largest k with place^k dividing p, for a squarefree `place`: the
    least order of p at a root of `place`, and its order at every root where
    that order is the same at all of them (`split_by` makes it so); large
    sentinel for p = 0."""
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
    g, b, c = _gcd_parts(p, p.derivative())
    if g.degree == 0:  # squarefree: one block
        return [(p, 1)]
    out: list[tuple[UniPoly, int]] = []
    i = 1
    while b.degree > 0:
        fi, b, c = _gcd_parts(b, c - b.derivative())
        if fi.degree > 0:
            out.append((fi, i))
        i += 1
    return out


def is_perfect_square(p: UniPoly) -> Optional[UniPoly]:
    """Return h with h^2 = p (leading coefficient of h positive), or None."""
    if p.is_zero:
        return UNIPOLY_ZERO
    if p.degree % 2:
        return None
    # p = (n/d) P is a square iff n and d are squares (n/d is reduced) and the
    # primitive part P is the square of a primitive integer polynomial
    if p._n < 0:
        return None
    rn, rd = math.isqrt(p._n), math.isqrt(p._d)
    if rn * rn != p._n or rd * rd != p._d:
        return None
    prim = p._p
    lead = math.isqrt(prim[-1])
    if lead * lead != prim[-1]:
        return None
    m = p.degree // 2
    h = [0] * (m + 1)
    h[m] = lead
    for k in range(1, m + 1):
        # match the coefficient of t^(2m-k)
        s = 0
        for i in range(m - k + 1, m + 1):
            j = 2 * m - k - i
            if m - k < j <= m:
                s += h[i] * h[j]
        q, r = divmod(prim[2 * m - k] - s, 2 * lead)
        if r:
            return None
        h[m - k] = q
    cand = _canonical(h, rn, rd)
    if cand * cand == p:
        return cand
    return None


def _sieve(n: int) -> tuple[int, ...]:
    """The primes below n, by the sieve of Eratosthenes."""
    marks = bytearray([1]) * n
    marks[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if marks[p]:
            marks[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(compress(range(n), marks))


# the primes below 1000, kept for every call of `_primes`: immutable, so safe
# to share between threads
_SMALL_PRIMES = _sieve(1000)


def _primes() -> Iterator[int]:
    """2, 3, 5, 7, ... without end: the kept primes below 1000, then each
    further one by trial division up to the square root.  The only place
    primes are drawn."""
    yield from _SMALL_PRIMES
    found = list(_SMALL_PRIMES)
    q = found[-1] + 2
    while True:
        if all(q % r for r in takewhile(lambda r: r * r <= q, found)):
            found.append(q)
            yield q
        q += 2


def _horner_mod(p: Sequence[int], x: int, m: int) -> int:
    acc = 0
    for a in reversed(p):
        acc = (acc * x + a) % m
    return acc


def rational_roots(f: UniPoly) -> list[Fraction]:
    """The rational roots, unsorted, of a squarefree polynomial f, by p-adic
    lifting (Loos 1983) on its primitive integer part p: at the least prime q
    not dividing the leading coefficient a_n at which every root of p mod q is
    simple, each such root lifts to a unique q-adic root, and a rational root
    num/den (den | a_n) is one of those lifts.  Once the modulus m exceeds
    2 |a_0 a_n|, the symmetric residue of a_n * z mod m is the integer
    a_n * num / den, so each lift gives one candidate, kept only if it is a
    root; a lift of an irrational root fails that check.  No integer is
    factored.  Squarefreeness is assumed, not tested: each prime skipped
    divides a_n * disc(p), below 2^B for B = bits(a_n) + n bits(n) +
    (n - 1) bits(||p||^2) (Mahler), so skipping B of them, as a repeated
    rational root makes the search do, raises InternalInconsistencyError, as
    does a double root 0.  A repeated factor without rational roots may pass;
    the roots returned are still exact."""
    p = f._p
    if not p:
        raise ValueError("rational roots of the zero polynomial")
    roots = []
    if p[0] == 0:
        if p[1] == 0:
            raise InternalInconsistencyError("rational roots of a polynomial with a double root 0")
        roots.append(Fraction(0))
        p = p[1:]
    n = len(p) - 1
    if n < 1:
        return roots
    lead = p[-1]
    dp = [i * a for i, a in enumerate(p)][1:]
    skips = lead.bit_length() + n * n.bit_length() + (n - 1) * sum(a * a for a in p).bit_length()
    for q in _primes():
        if lead % q:
            zs = [z for z in range(q) if _horner_mod(p, z, q) == 0]
            if all(_horner_mod(dp, z, q) for z in zs):
                break
        skips -= 1
        if skips < 0:
            raise InternalInconsistencyError("rational roots of a non-squarefree polynomial")
    bound = 2 * abs(p[0] * lead)
    for z in zs:
        m = q
        while m <= bound:
            m *= m
            z = (z - _horner_mod(p, z, m) * pow(_horner_mod(dp, z, m), -1, m)) % m
        w = lead * z % m
        if 2 * w > m:
            w -= m
        r = Fraction(w, lead)
        num, den = r.numerator, r.denominator
        if sum(a * num ** i * den ** (n - i) for i, a in enumerate(p)) == 0:
            roots.append(r)
    return roots


def squarefree_places(p: UniPoly) -> list[tuple[UniPoly, int]]:
    """The places of p with their multiplicities, ordered by degree, then
    coefficients: the `block_places` of each block of the squarefree
    decomposition.  Nothing is factored over Z, as no consumer reads
    irreducibility, only degrees, multiplicities and valuations (`split_by`
    cuts a block where one of those changes).  No integer derived from `p` is
    ever factored, and sympy is not used."""
    out = [(place, mult) for f, mult in squarefree_decompose(p) for place in block_places(f)]
    if len(out) > 1:
        out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


def block_places(block: UniPoly) -> list[UniPoly]:
    """The places of a monic squarefree block, with no second Yun pass: the
    monic linear factor of each rational root, one place each, then the
    rootless rest of the block, if any, whole as one monic place."""
    out = []
    for r in rational_roots(block):
        linear = UniPoly.of(-r, 1)
        out.append(linear)
        block = block.exact_div(linear)
    if block.degree > 0:
        out.append(block)
    return out


def split_by(block: UniPoly, a: UniPoly) -> list[tuple[UniPoly, int]]:
    """The pieces of a monic squarefree block on each of which ord(a) is
    constant, each with that order, in increasing order of it; their product
    is the block.  Coprime refinement by repeated gcd (Bach-Driscoll-Shallit
    1993): the roots of gcd(block, a) are those where a vanishes, and dividing
    a by that gcd lowers its order there by one, so a piece cut off at step k
    (from 0) has order k.  A degree-1 block, or any block when a = 0, comes
    back as it is, with no gcd taken, and its order from `ord_at`."""
    if block.degree == 1 or a.is_zero:
        return [(block, ord_at(a, block))]
    pieces = []
    k = 0
    while block.degree > 0:
        g, rest, a_rest = _gcd_parts(block, a)
        if g.degree < block.degree:
            pieces.append((rest, k))
        block, a = g, a_rest
        k += 1
    return pieces


def cubic_invariants(c1: UniPoly, c2: UniPoly, c3: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """(disc, c4, c6) of u^3 + c1 u^2 + c2 u + c3, in one pass over integers:
    disc = c1^2 c2^2 - 4 c2^3 + 18 c1 c2 c3 - 4 c1^3 c3 - 27 c3^2 and, up to
    the constants 16 and -32 (only their valuations are read),
    c4 = c1^2 - 3 c2 and c6 = 2 c1^3 - 9 c1 c2 + 27 c3.  With c_k of weight
    k, each is a form of weight 6, 2 and 3 in A_k = D^k c_k, over D^6, D^2
    and D^3, D the lcm of the contents' denominators; the three share the
    products A1^2, A1 A2, A1^3 and A2^2:

        disc = A2^2 (A1^2 - 4 A2) + A3 (18 A1 A2 - 4 A1^3 - 27 A3)."""
    den = math.lcm(c1._d, c2._d, c3._d)
    a1, a2, a3 = ([c._n * (den ** k // c._d) * x for x in c._p]
                  for k, c in enumerate((c1, c2, c3), start=1))
    a11, a12, a22 = _convolve(a1, a1), _convolve(a1, a2), _convolve(a2, a2)
    a111 = _convolve(a11, a1)
    disc = _sum((1, _convolve(a22, _sum((1, a11), (-4, a2)))),
                (1, _convolve(a3, _sum((18, a12), (-4, a111), (-27, a3)))))
    return (_canonical(disc, 1, den ** 6), _canonical(_sum((1, a11), (-3, a2)), 1, den ** 2),
            _canonical(_sum((2, a111), (-9, a12), (27, a3)), 1, den ** 3))


def _sum(*terms: tuple[int, list[int]]) -> list[int]:
    """The coefficients of sum k p over the (k, p) pairs of an integer and
    the coefficient list of an integer polynomial."""
    acc = [0] * max(len(p) for _k, p in terms)
    for k, p in terms:
        for i, x in enumerate(p):
            acc[i] += k * x
    return acc


class RatFn:
    """Rational function num/den with monic denominator and gcd(num, den) = 1.

    A monic constant denominator is 1.  Where both operands have it, `+`,
    `-`, `*` and unary minus act on the numerators alone, and so does `/` by
    a nonzero constant: the result is canonical as it stands, so it is built
    directly (`_polynomial`), with no product by the denominator 1 and no
    gcd.  Any other pair takes the constructor, which cancels the gcd."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly = UNIPOLY_ONE):
        if not isinstance(num, UniPoly):
            num = UniPoly.const(num)
        if not isinstance(den, UniPoly):
            den = UniPoly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            den = UNIPOLY_ONE
        elif den.is_constant():
            if den != UNIPOLY_ONE:
                num, den = _scaled(num, den._d, den._n), UNIPOLY_ONE
        else:
            _, num, den = _gcd_parts(num, den)
            lead, d = den._n * den._p[-1], den._d
            if lead != d:  # divide both by the leading coefficient lead/d
                h = math.gcd(lead, d)
                num, den = _scaled(num, d // h, lead // h), den.monic()
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
            return _polynomial(x)
        if isinstance(x, (int, Fraction)):
            return _polynomial(UniPoly.const(x))
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
        if len(self.den._p) == 1:
            return _polynomial(-self.num)
        return RatFn(-self.num, self.den)

    def __add__(self, other):
        other = RatFn._coerce(other)
        if len(self.den._p) == len(other.den._p) == 1:
            return _polynomial(self.num + other.num)
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = RatFn._coerce(other)
        if len(self.den._p) == len(other.den._p) == 1:
            return _polynomial(self.num - other.num)
        return self + (-other)

    def __mul__(self, other):
        other = RatFn._coerce(other)
        if len(self.den._p) == len(other.den._p) == 1:
            return _polynomial(self.num * other.num)
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFn._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        if len(self.den._p) == len(other.den._p) == len(other.num._p) == 1:
            return _polynomial(self.num // other.num)
        return RatFn(self.num * other.den, self.den * other.num)

    def __call__(self, x: Scalar) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at t = {x}")
        return self.num(x) / d

    def __repr__(self):
        from .parsing import ratfn_text

        return f"RatFn({ratfn_text(self)})"


_set_ratfn_num = RatFn.num.__set__
_set_ratfn_den = RatFn.den.__set__


def _polynomial(num: UniPoly) -> RatFn:
    """The RatFn num/1, canonical as it stands, so built with no gcd."""
    r = object.__new__(RatFn)
    _set_ratfn_num(r, num)
    _set_ratfn_den(r, UNIPOLY_ONE)
    return r


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

    def __add__(self, other: "BiPoly") -> "BiPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return BiPoly(out)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        if self.is_zero or other.is_zero:
            return BiPoly()
        out = [UNIPOLY_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return BiPoly(out)

    def eval_u(self, x: UniPoly) -> UniPoly:
        """Substitute u = x by one Horner pass in integers: with x = (n/d) X, X
        primitive, and the coefficients c_k = C_k / D over their common
        denominator, D d^m f(x) = sum_k C_k (n X)^k d^(m-k), m = deg_u."""
        den = math.lcm(*(c._d for c in self.coeffs))
        y = [x._n * a for a in x._p]
        acc: list[int] = []
        dk = 1
        for i, c in enumerate(reversed(self.coeffs)):
            if i:
                acc = _convolve(acc, y) if acc and y else []
                dk *= x._d
            acc += [0] * (len(c._p) - len(acc))
            f = c._n * (den // c._d) * dk
            for j, a in enumerate(c._p):
                acc[j] += f * a
        return _canonical(acc, 1, den * dk)

    def deriv_u(self) -> "BiPoly":
        return BiPoly([c * k for k, c in enumerate(self.coeffs)][1:])

    def deriv_t(self) -> "BiPoly":
        return BiPoly([c.derivative() for c in self.coeffs])

    def __repr__(self):
        from .parsing import bipoly_text

        return f"BiPoly({bipoly_text(self)})"
