"""Elliptic curves y^2 = u^3 + c1(t) u^2 + c2(t) u + c3(t) over Q(t), viewed as
rational elliptic surfaces.

The degree bounds deg c_k <= 2k make the surface rational with chi = 1.  At
infinity every valuation is read off a weighted degree: in the chart s = 1/t a
quantity of weight w (c_k has weight 2k, x weight 2, y weight 3) is
s^w a(1/s), so v_inf(a) = w - deg a, and no second model is built.  Singular
fibers are classified by the valuations of (c4, c6, disc) -- the residue
fields have characteristic zero, so the short form of Tate's algorithm
applies.  Heights follow Shioda's formula

    <P, P> = 2 chi + 2 P.O - sum_v deg v * contr_v(P)

with each local correction contr_v read off the valuations of P's coordinates
at v (Silverman 1988); cross pairings follow by bilinearity.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

from .poly import (
    UNIPOLY_ONE,
    BiPoly,
    InternalInconsistencyError,
    RatFn,
    UniPoly,
    block_places,
    cubic_invariants,
    is_perfect_square,
    ord_at,
    rational_roots,
    split_by,
    squarefree_decompose,
)

INFINITY_PLACE = "inf"
Place = Union[UniPoly, str]


# ---------------------------------------------------------------------------
# sections and curves
# ---------------------------------------------------------------------------


class SectionPoint:
    """A point of the Mordell-Weil group: the zero section O, or (x, y) in Q(t).
    Not a tuple: a report writes a section as text, a tuple as an array."""

    __slots__ = ("x", "y")

    def __init__(self, x: Optional[RatFn], y: Optional[RatFn]):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, *a):
        raise AttributeError("SectionPoint is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not SectionPoint:
            return NotImplemented
        return (self.x, self.y) == (other.x, other.y)

    def __hash__(self):
        return hash((self.x, self.y))

    @staticmethod
    def zero() -> "SectionPoint":
        return SectionPoint(None, None)

    @staticmethod
    def of(x, y) -> "SectionPoint":
        to = lambda v: v if isinstance(v, RatFn) else RatFn(v if isinstance(v, UniPoly) else UniPoly.const(v))
        return SectionPoint(to(x), to(y))

    @property
    def is_zero(self) -> bool:
        return self.x is None

    def __repr__(self):
        from .parsing import section_text

        return f"SectionPoint({section_text(self)})"


class WeierstrassCurve:
    """y^2 = u^3 + c1 u^2 + c2 u + c3 with deg c_k <= 2k and nonzero discriminant.

    A frozen value: the discriminant, c4 and c6 (read together from one
    integer pass, `invariants`), the cubic and its derivative in u, the first
    smooth fiber t0 and the cubic read mod (t - t0)^3 there are each built on
    first use and kept on the instance."""

    def __init__(self, c1: UniPoly, c2: UniPoly, c3: UniPoly):
        for k, c in enumerate((c1, c2, c3), start=1):
            if c.degree > 2 * k:
                raise ValueError(f"deg c{k} = {c.degree} exceeds the bound {2 * k}")
        vars(self).update(c1=c1, c2=c2, c3=c3)
        if self.discriminant.is_zero:
            raise ValueError("discriminant vanishes identically")

    def __setattr__(self, *a):
        raise AttributeError("WeierstrassCurve is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not WeierstrassCurve:
            return NotImplemented
        return (self.c1, self.c2, self.c3) == (other.c1, other.c2, other.c3)

    def __hash__(self):
        return hash((self.c1, self.c2, self.c3))

    @classmethod
    def from_cubic(cls, f: BiPoly) -> "WeierstrassCurve":
        """The curve y^2 = f(t, u); f must be monic cubic in u."""
        if f.degree_u != 3 or f.coeff_u(3) != UNIPOLY_ONE:
            raise ValueError("curve must be monic cubic in u")
        return cls(f.coeff_u(2), f.coeff_u(1), f.coeff_u(0))

    @cached_property
    def cubic(self) -> BiPoly:
        return BiPoly([self.c3, self.c2, self.c1, UNIPOLY_ONE])

    @cached_property
    def cubic_u(self) -> BiPoly:
        return self.cubic.deriv_u()

    def rhs(self, x: RatFn) -> RatFn:
        return ((x + self.c1) * x + self.c2) * x + self.c3

    @cached_property
    def invariants(self) -> tuple[UniPoly, UniPoly, UniPoly]:
        """(discriminant, c4, c6), c4 and c6 up to the constants 16 and -32
        (only valuations are ever read), from one `cubic_invariants` pass."""
        return cubic_invariants(self.c1, self.c2, self.c3)

    @property
    def discriminant(self) -> UniPoly:
        return self.invariants[0]

    @property
    def c4_quantity(self) -> UniPoly:
        return self.invariants[1]

    @property
    def c6_quantity(self) -> UniPoly:
        return self.invariants[2]

    @cached_property
    def good_fiber(self) -> Fraction:
        """The least integer t0 >= 0 whose fiber is smooth, where
        `two_torsion_free` and `halve` specialize."""
        return _good_fiber(self)

    @cached_property
    def local_cubic(self) -> BiPoly:
        """The cubic at the good fiber: f(t0 + s, u) mod s^3."""
        return _local(self.cubic, self.good_fiber)

    def __repr__(self):
        from .parsing import bipoly_text

        return f"WeierstrassCurve(y^2 = {bipoly_text(self.cubic)})"


# ---------------------------------------------------------------------------
# group law
# ---------------------------------------------------------------------------


def on_curve(curve: WeierstrassCurve, point: SectionPoint) -> bool:
    if point.is_zero:
        return True
    return point.y * point.y == curve.rhs(point.x)


def require_on_curve(curve: WeierstrassCurve, *points: SectionPoint):
    """The check made once, where points enter (the command line): every
    function of this module assumes its points lie on the curve and does not
    repeat it."""
    for p in points:
        if not on_curve(curve, p):
            raise ValueError(f"point {p!r} is not on the curve")


def negate(curve: WeierstrassCurve, point: SectionPoint) -> SectionPoint:
    """-P; P must lie on the curve."""
    if point.is_zero:
        return point
    return SectionPoint(point.x, -point.y)


def add(curve: WeierstrassCurve, p: SectionPoint, q: SectionPoint) -> SectionPoint:
    """P + Q by the chord law; P and Q must lie on the curve."""
    if p.is_zero:
        return q
    if q.is_zero:
        return p
    if p.x == q.x:
        if p.y == -q.y:
            return SectionPoint.zero()
        return double(curve, p)
    lam = (q.y - p.y) / (q.x - p.x)
    x3 = lam * lam - curve.c1 - p.x - q.x
    y3 = lam * (p.x - x3) - p.y
    return SectionPoint(x3, y3)


def double(curve: WeierstrassCurve, p: SectionPoint) -> SectionPoint:
    """2P by the tangent law; P must lie on the curve."""
    if p.is_zero or p.y.is_zero:
        return SectionPoint.zero()
    lam = (3 * p.x * p.x + 2 * curve.c1 * p.x + curve.c2) / (2 * p.y)
    x3 = lam * lam - curve.c1 - 2 * p.x
    y3 = lam * (p.x - x3) - p.y
    return SectionPoint(x3, y3)


# ---------------------------------------------------------------------------
# valuations and fiber classification (Tate over residue characteristic zero)
# ---------------------------------------------------------------------------


def _valuation(a: Union[UniPoly, RatFn], place: Place, weight: int) -> int:
    """v(a) at a place.  At a finite place this is `ord_at`.  At infinity a
    quantity of weight w reads s^w a(1/s) in the chart s = 1/t, so
    v(a) = w - deg a: Tate's algorithm in the twisted model, which is
    polynomial because deg c_k <= 2k, without building that model.  Zero gets
    `ord_at`'s sentinel; a rational function is v(num) - v(den), den of
    weight 0."""
    if isinstance(a, RatFn):
        return _valuation(a.num, place, weight) - _valuation(a.den, place, 0)
    if place != INFINITY_PLACE:
        return ord_at(a, place)
    return 10 ** 9 if a.is_zero else weight - a.degree


# Kodaira's table: family -> (m_v, Euler number, root system) at n = 0; the
# I_n and I_n* rows add n to both numbers, and the other families have n = 0.
# The non-identity components span a root lattice of rank m_v - 1, and in
# residue characteristic zero the Euler number is v(disc) (Ogg's formula).
_KODAIRA = {
    "I": (0, 0, "A"),
    "I*": (5, 6, "D"),
    "II": (1, 2, None),
    "III": (2, 3, "A"),
    "IV": (3, 4, "A"),
    "IV*": (7, 8, "E"),
    "III*": (8, 9, "E"),
    "II*": (9, 10, "E"),
}


class PlaceData:
    """A place of bad reduction: infinity, or a squarefree block of roots of
    the discriminant that share one fiber type (see `height_context`), of
    `degree` roots.  `family` is 'I', 'I*' or an additive type, and `n` the
    index of I_n and I_n* (0 for the others).
    `kodaira`, `m_v`, `euler` and `root_label()` are read off the one Kodaira
    table.  `curve` is the curve whose fiber it is.  A frozen value, equal
    only to itself."""

    def __init__(self, place: Place, family: str, n: int, degree: int, curve: WeierstrassCurve):
        vars(self).update(place=place, family=family, n=n, degree=degree, curve=curve)

    def __setattr__(self, *a):
        raise AttributeError("PlaceData is immutable")

    @property
    def label(self) -> str:
        from .parsing import poly_text

        if self.place == INFINITY_PLACE:
            return INFINITY_PLACE
        return poly_text(self.place).replace(" ", "")

    @property
    def kodaira(self) -> str:
        return f"I{self.n}{self.family[1:]}" if self.family in ("I", "I*") else self.family

    @property
    def m_v(self) -> int:
        return _KODAIRA[self.family][0] + self.n

    @property
    def euler(self) -> int:
        return _KODAIRA[self.family][1] + self.n

    def root_label(self) -> Optional[str]:
        """ADE label of the fiber's non-identity component lattice, if any."""
        rank = self.m_v - 1
        return f"{_KODAIRA[self.family][2]}{rank}" if rank >= 1 else None


def _classify(v_c4: int, v_c6: int, v_disc: int) -> tuple[str, int]:
    """(family, n) from the valuations of (c4, c6, disc) at the place."""
    if v_c4 == 0:
        return "I", v_disc
    if v_c4 == 2 and v_c6 == 3 and v_disc >= 7:
        return "I*", v_disc - 6
    for family, (_m_v, euler, _root) in _KODAIRA.items():
        if family != "I" and euler == v_disc:
            return family, 0  # v(disc) = 6 is I0*
    shown = ["inf" if v >= 10 ** 9 else v for v in (v_c4, v_c6)]  # ord_at of zero
    raise ValueError(
        f"unrecognized fiber data v(c4)={shown[0]}, v(c6)={shown[1]}, v(disc)={v_disc}; "
        "the model is not minimal at this place"
    )


def kodaira_type_at(curve: WeierstrassCurve, place: Place) -> PlaceData:
    """Fiber type, component count and Euler number at a bad place, from the
    valuations of the discriminant, c4 and c6 read here.

    The place is INFINITY_PLACE, or a squarefree polynomial at each of whose
    roots the discriminant, c4 and c6 have the same orders, so that all of
    them carry one fiber type.  The discriminant, c4 and c6 have weights 12,
    4 and 6.  `height_context` calls this only at infinity: at its finite
    places the refinement that finds them has already given each valuation.
    """
    if place == INFINITY_PLACE:
        degree = 1
    else:
        if not isinstance(place, UniPoly) or place.degree < 1:
            raise ValueError("place must be a squarefree polynomial or 'inf'")
        place = place.monic()
        degree = place.degree
    v_disc = _valuation(curve.discriminant, place, 12)
    if v_disc == 0:
        raise ValueError("nonsingular place: the fiber there is smooth")
    family, n = _classify(
        _valuation(curve.c4_quantity, place, 4), _valuation(curve.c6_quantity, place, 6), v_disc
    )
    return PlaceData(place, family, n, degree, curve)


# ---------------------------------------------------------------------------
# local corrections
# ---------------------------------------------------------------------------


def local_correction(pd: PlaceData, point: SectionPoint) -> Fraction:
    """contr_v(P), the correction of <P, P> at one bad place, from valuations
    alone (J. Silverman, Computing heights on elliptic curves, Math. Comp. 51
    (1988), Thm 5.2).  It needs a minimal model at the place, which the curve
    (or, at infinity, its twisted model) is wherever `_classify` succeeds.  The
    value is the diagonal entry of the inverse Cartan matrix of the fiber at
    the component that P meets, and 0 on the identity component, so 0 on a
    fiber of one component (I1, II) before any valuation is read.  On a place
    of degree >= 2 every valuation read must be the same at each of its roots;
    `_place_correction` cuts a block so that it is.

    x has weight 2 and y weight 3.  The polynomials in x are evaluated
    homogeneously on x = num/den, as den^k F(x) of weight w_F + k deg den:
    they are reached only when v(x) >= 0, so they have the valuations of
    their values.
    """
    if point.is_zero or pd.m_v == 1:
        return Fraction(0)
    curve, place = pd.curve, pd.place
    den = point.x.den
    v_y = _valuation(point.y, place, 3)
    if _valuation(point.x, place, 2) < 0 or v_y <= 0:
        return Fraction(0)  # P meets the zero point, or misses the singular point
    if _valuation(_fp(curve, point.x), place, 4 + 2 * den.degree) <= 0:
        return Fraction(0)
    if pd.family == "I":
        n = pd.n
        m = min(Fraction(v_y), Fraction(n, 2))
        return m * (n - m) / n
    v_psi3 = _valuation(_psi3(curve, point.x), place, 8 + 4 * den.degree)
    return Fraction(2 * v_y, 3) if v_psi3 >= 3 * v_y else Fraction(v_psi3, 4)


def _fp(curve: WeierstrassCurve, x: RatFn) -> UniPoly:
    """den^2 f'(x) for x = num/den."""
    num, den = x.num, x.den
    return 3 * num * num + 2 * curve.c1 * num * den + curve.c2 * den * den


def _psi3(curve: WeierstrassCurve, x: RatFn) -> UniPoly:
    """den^4 psi3(x) for x = num/den."""
    c1, c2, c3 = curve.c1, curve.c2, curve.c3
    n2, nd, d2 = x.num * x.num, x.num * x.den, x.den * x.den
    return (3 * n2 * n2 + 4 * c1 * n2 * nd + 6 * c2 * n2 * d2 + 12 * c3 * nd * d2
            + (4 * c1 * c3 - c2 * c2) * d2 * d2)


def _place_correction(pd: PlaceData, point: SectionPoint) -> Fraction:
    """The sum of contr_v(P) over the roots v of the place.  P may meet
    different components over different roots of one block, so a place of
    degree >= 2 and more than one component is cut by `split_by` along each
    quantity `local_correction` reads: the denominator of x (its order fixes
    the sign of v(x), as x is reduced), the numerator and denominator of y,
    f'(x) and psi3(x).  Each piece adds its degree times its correction."""
    if pd.degree == 1 or pd.m_v == 1 or point.is_zero:
        return pd.degree * local_correction(pd, point)
    curve, x = pd.curve, point.x
    pieces = [pd.place]
    for a in (x.den, point.y.num, point.y.den, _fp(curve, x), _psi3(curve, x)):
        pieces = [b for piece in pieces for b, _ in split_by(piece, a)]
    return sum(piece.degree
               * local_correction(PlaceData(piece, pd.family, pd.n, piece.degree, curve), point)
               for piece in pieces)


# ---------------------------------------------------------------------------
# intersection numbers
# ---------------------------------------------------------------------------


def section_O_intersection(point: SectionPoint) -> int:
    """Intersection number with the zero section, from the pole degrees of x:
    on the curve every pole of x has even order (y^2 has the order of x^3), at
    the finite places and at infinity alike, and P meets O with half of it.
    The point must lie on the curve."""
    if point.is_zero:
        raise ValueError("O.O is not defined here; self-pairings go through the height")
    return point.x.den.degree // 2 + max(0, -_valuation(point.x, INFINITY_PLACE, 2)) // 2


# ---------------------------------------------------------------------------
# height pairing
# ---------------------------------------------------------------------------


class HeightContext(NamedTuple):
    """A curve together with all of its bad places; Euler numbers must sum to
    12 chi = 12 (the surface is rational)."""

    curve: WeierstrassCurve
    places: tuple[PlaceData, ...]


def height_context(curve: WeierstrassCurve) -> HeightContext:
    """Classify every bad fiber of the curve.  The context is immutable, so one
    context serves every height pairing on the curve.

    Nothing is factored, and no finite valuation is read twice.  Each block
    of Yun's decomposition of the discriminant has its multiplicity as
    v(disc) at every root.  A repeated block is cut by `split_by` along c4,
    then c6, whose orders on each piece are the steps that cut it off, so
    that (v(c4), v(c6), v(disc)) is the same at each root of a piece: an I2
    root and a type II root both have v(disc) = 2, and can share a block.
    Each piece then gives up its rational roots as linear places and keeps
    its rootless rest whole (`block_places`).  The simple part is one place:
    v(disc) = 1 forces v(c4) = v(c6) = 0, as 1728 disc = c4^3 - c6^2, so each
    of its roots carries an I1 fiber, of Euler number 1 and with no root
    lattice.  A section meets an I1 fiber at a smooth point, so its local
    correction there is 0 root by root.  The fiber at infinity is typed by
    `kodaira_type_at`, and the Euler numbers must sum to 12."""
    c4, c6 = curve.c4_quantity, curve.c6_quantity
    places = []
    for block, mult in squarefree_decompose(curve.discriminant):
        if mult == 1:
            places.append(PlaceData(block, *_classify(0, 0, 1), block.degree, curve))
            continue
        for by_c4, v_c4 in split_by(block, c4):
            for piece, v_c6 in split_by(by_c4, c6):
                places.extend(PlaceData(place, *_classify(v_c4, v_c6, mult), place.degree, curve)
                              for place in block_places(piece))
    if len(places) > 1:
        places.sort(key=lambda pd: pd.place.coeffs)
    if curve.discriminant.degree < 12:  # the discriminant has weight 12
        places.append(kodaira_type_at(curve, INFINITY_PLACE))
    total = sum(pd.degree * pd.euler for pd in places)
    if total != 12:
        raise InternalInconsistencyError(
            f"Euler numbers of the fibers sum to {total}, not 12"
        )
    return HeightContext(curve, tuple(places))


def _self_height(ctx: HeightContext, p: SectionPoint) -> Fraction:
    chi = Fraction(1)  # chi(O_S) = 1: the surface is rational
    corr = sum(_place_correction(pd, p) for pd in ctx.places)
    return 2 * chi + 2 * section_O_intersection(p) - corr


def height_pairing(ctx: HeightContext, p: SectionPoint, q: SectionPoint) -> Fraction:
    """Shioda's pairing: <P, P> = 2 chi + 2 P.O - sum_v deg v * contr_v(P), and
    <P, Q> = (<P, P> + <Q, Q> - <P - Q, P - Q>) / 2 by bilinearity.  Pairing
    anything with the zero section is 0.  P and Q must lie on the curve."""
    if p.is_zero or q.is_zero:
        return Fraction(0)
    if p == q:
        return _self_height(ctx, p)
    diff = add(ctx.curve, p, negate(ctx.curve, q))
    return (_self_height(ctx, p) + _self_height(ctx, q) - _self_height(ctx, diff)) / 2


# ---------------------------------------------------------------------------
# halving (2-divisibility) and 2-torsion
# ---------------------------------------------------------------------------


def _good_fiber(curve: WeierstrassCurve, avoid: UniPoly = UNIPOLY_ONE) -> Fraction:
    """The least integer t0 >= 0 with a smooth fiber (disc(t0) != 0) at which
    `avoid`, a nonzero polynomial, does not vanish either."""
    disc = curve.discriminant
    k = 0
    while disc(Fraction(k)) == 0 or avoid(Fraction(k)) == 0:
        k += 1
    return Fraction(k)


def _local(f: BiPoly, t0: Fraction) -> BiPoly:
    """f(t0 + s, u) mod s^3: f read near the fiber over t0."""
    return BiPoly([c.shift(t0, 3) for c in f.coeffs])


def _lifted_roots(local: BiPoly, t0: Fraction,
                  residual: Callable[[UniPoly], UniPoly]) -> list[UniPoly]:
    """The lifts mod (t - t0)^3 of the rational roots of poly(t0, u), in
    ascending order of those roots, shifted back to t; every root of poly in
    Q[t] of degree <= 2 is among them.  `local` is poly(t0 + s, u), read only
    mod s^3, whose fiber p_0 = poly(t0, u) has simple roots, so it goes
    straight to the p-adic root finder.  With p_k(u) the
    coefficient of s^k in `local`, a root r of p_0 lifts to r + a s + b s^2:

        p_0'(r) a = -p_1(r),
        p_0'(r) b = -(p_2(r) + p_1'(r) a + p_0''(r) a^2 / 2).

    Each lift L is checked exactly: `residual(L)`, poly(t0 + s, L(s)) from
    the caller's own expression for poly, not from the p_k, is built once and
    vanishes mod s^3.
    """
    p0, p1, p2 = (local.coeff_t(k) for k in range(3))
    d0, d1 = p0.derivative(), p1.derivative()
    dd0 = d0.derivative()
    lifts = []
    for r in sorted(rational_roots(p0)):
        a = -p1(r) / d0(r)
        b = -(p2(r) + d1(r) * a + dd0(r) * a * a / 2) / d0(r)
        lift = UniPoly.of(r, a, b)
        res = residual(lift)
        if any(res.coeff(k) for k in range(3)):
            raise InternalInconsistencyError(f"lift of the root {r} is not a root mod (t - t0)^3")
        lifts.append(lift.shift(-t0))
    return lifts


def halve(curve: WeierstrassCurve, point: SectionPoint) -> Optional[SectionPoint]:
    """A section s_o with 2 s_o = point, or None if no such section exists;
    the point must lie on the curve.

    Requires polynomial coordinates with deg x <= 2, deg y <= 3 (equivalently
    s.O = 0); any half of such a section again has polynomial coordinates
    within the same bounds.  Its x is a root of the halving quartic
    H(t, X) = f'(X)^2 - 4 (c1 + 2X + x_P) f(X), which for f = X^3 + aX^2 + bX + c
    and x = x_P is X^4 - 4x X^3 - (2b + 4ax) X^2 - (8c + 4bx) X + b^2 - 4c(a + x).
    At a smooth fiber t0 with y_P(t0) != 0 the four roots of H(t0, X) are
    distinct (two halves sharing an x would make P(t0) 2-torsion), so each
    rational root has one lift mod (t - t0)^3, read off in closed form by
    `_lifted_roots`, and a half has that lift as its x.  H is read only mod
    (t - t0)^3, from a, b, c and x shifted to t0, and each lift is checked on
    f'^2 - 4 (a + 2X + x) f there.  Each candidate X is decided by exact checks
    alone: f(X) = Y^2 a nonzero square, then the tangent law (Silverman, AEC
    III.2.3) as two polynomial identities.  With slope f'(X) / 2Y, the double
    of (X, Y) has x = x_P iff f'(X)^2 = 4 f(X) (x_P + c1 + 2X), and then
    y = y_P iff f'(X) (X - x_P) - 2 f(X) = 2 Y y_P; Y = +sqrt f(X) is tried
    first.  t0 is the curve's first smooth fiber, and f mod (t - t0)^3 there
    its `local_cubic`, both shared with `two_torsion_free`, unless
    y_P(t0) = 0: then t0 moves on to the least smooth fiber where y_P does
    not vanish, and f is shifted there.  A 2-torsion point (y_P = 0) has
    H = ((X - x_P)^2 - f'(x_P))^2, so its candidates are x_P +- sqrt(f'(x_P)),
    tried in ascending order at a smooth fiber that separates them, as the
    lifts are at t0.
    """
    if point.is_zero:
        raise ValueError("halving the zero section")
    if not (point.x.is_polynomial() and point.y.is_polynomial()):
        raise ValueError("halving needs polynomial coordinates (s.O = 0)")
    if point.x.num.degree > 2 or point.y.num.degree > 3:
        raise ValueError("halving needs deg x <= 2 and deg y <= 3 (s.O = 0)")
    f, fp = curve.cubic, curve.cubic_u
    x_p, y_p = point.x.num, point.y.num
    if y_p.is_zero:
        g = is_perfect_square(fp.eval_u(x_p))
        if g is None:
            return None
        t0 = _good_fiber(curve, g)
        candidates = sorted((x_p - g, x_p + g), key=lambda c: c(t0))
    else:
        t0 = curve.good_fiber
        if y_p(t0):
            local = curve.local_cubic
        else:  # the least smooth fiber where y_P does not vanish lies further on
            t0 = _good_fiber(curve, y_p)
            local = _local(f, t0)
        local_p = local.deriv_u()
        c, b, a = local.coeffs[:3]
        x = x_p.shift(t0, 3)
        quartic = BiPoly([b * b - 4 * c * (a + x), -8 * c - 4 * b * x, -2 * b - 4 * a * x,
                          -4 * x, UNIPOLY_ONE])
        candidates = _lifted_roots(quartic, t0, lambda lift: (
            local_p.eval_u(lift) ** 2 - 4 * (a + 2 * lift + x) * local.eval_u(lift)))
    for cand in candidates:
        f_x = f.eval_u(cand)
        g = is_perfect_square(f_x)
        if g is None or g.is_zero:  # a zero Y doubles to O, never to point
            continue
        fp_x = fp.eval_u(cand)
        if fp_x * fp_x != 4 * f_x * (x_p + curve.c1 + 2 * cand):
            continue
        lhs = fp_x * (cand - x_p) - 2 * f_x
        for y_half in (g, -g):
            if lhs == 2 * y_half * y_p:
                return SectionPoint(RatFn(cand), RatFn(y_half))
    return None


def two_torsion_free(curve: WeierstrassCurve) -> bool:
    """True iff the cubic has no root in Q[t] of degree <= 2.  At a smooth
    fiber the cubic's roots are simple, so such a root is the lift of a
    rational root there, and the lifts are checked exactly.  The fiber is the
    curve's first smooth one, and the cubic is read there as its kept
    `local_cubic`, which `halve` reuses."""
    local = curve.local_cubic
    return not any(curve.cubic.eval_u(x).is_zero
                   for x in _lifted_roots(local, curve.good_fiber, local.eval_u))
