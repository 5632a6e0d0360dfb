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

import math
from functools import cached_property
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .poly import (
    UNIPOLY_ONE,
    BiPoly,
    InternalInconsistencyError,
    RatFn,
    UniPoly,
    _canonical,
    _horner,
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
    smooth fiber t0 and the cubic's integer jets there (`fiber_jets`: c1, c2
    and c3 mod (t - t0)^3, scaled to integers by the powers of one
    denominator) are each built on first use and kept on the instance."""

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
    def good_fiber(self) -> int:
        """The least integer t0 >= 0 whose fiber is smooth, where
        `two_torsion_free` and `halve` specialize."""
        return _good_fiber(self)

    @cached_property
    def fiber_jets(self) -> tuple[int, Jet, Jet, Jet]:
        """The cubic at the good fiber as integer jets, which `two_torsion_free`
        and `halve` share."""
        return _fiber_jets(self, self.good_fiber)

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


def _good_fiber(curve: WeierstrassCurve, avoid: UniPoly = UNIPOLY_ONE) -> int:
    """The least integer t0 >= 0 with a smooth fiber (disc(t0) != 0) at which
    `avoid`, a nonzero polynomial, does not vanish either."""
    disc = curve.discriminant
    k = 0
    while disc(k) == 0 or avoid(k) == 0:
        k += 1
    return k


# A jet is a quantity read mod s^3 near a fiber, s = t - t0: the three integer
# coefficients of 1, s and s^2.  With one denominator D, c_k is scaled by D^k
# and u (and x_P) by D, so that in Y = D u every polynomial in u the fiber
# work reads has integer jets for coefficients.

Jet = tuple[int, int, int]


def _fiber_jets(curve: WeierstrassCurve, t0: int) -> tuple[int, Jet, Jet, Jet]:
    """(D, a, b, c): the cubic near the fiber over t0 as integer jets
    a = D c1, b = D^2 c2 and c = D^3 c3, for D the lcm of the denominators of
    the jets of c1, c2 and c3 (`UniPoly.jet`).  In Y = D u the cubic is
    D^-3 F(Y), F = Y^3 + a Y^2 + b Y + c."""
    (a, da), (b, db), (c, dc) = (ck.jet(t0) for ck in (curve.c1, curve.c2, curve.c3))
    den = math.lcm(da, db, dc)
    return (den, _jet_scaled(a, den // da), _jet_scaled(b, den ** 2 // db),
            _jet_scaled(c, den ** 3 // dc))


def _jet_scaled(p: Jet, k: int) -> Jet:
    return p if k == 1 else (k * p[0], k * p[1], k * p[2])


def _jet_product(p: Jet, q: Jet) -> Jet:
    """p q mod s^3."""
    p0, p1, p2 = p
    q0, q1, q2 = q
    return p0 * q0, p0 * q1 + p1 * q0, p0 * q2 + p1 * q1 + p2 * q0


def _cubic_at(a: Jet, b: Jet, c: Jet, n: Jet, e: int) -> tuple[Jet, Jet]:
    """(e^3 F(n/e), e^2 F'(n/e)) mod s^3 for F = Y^3 + a Y^2 + b Y + c at the
    jet n/e, so both in integers."""
    e2 = e * e
    ea = _jet_scaled(a, e)
    n2, ean = _jet_product(n, n), _jet_product(ea, n)
    f = _jet_product(tuple(x + y + e2 * z for x, y, z in zip(n2, ean, b)), n)
    f = tuple(x + e2 * e * z for x, z in zip(f, c))
    fp = tuple(3 * x + 2 * y + e2 * z for x, y, z in zip(n2, ean, b))
    return f, fp


def _lifted_roots(slices: Sequence[Sequence[int]], t0: int, den: int,
                  residual: Callable[[Jet, int], Jet]) -> list[UniPoly]:
    """The lifts mod (t - t0)^3 of the rational roots of a polynomial's fiber
    over t0, in ascending order of those roots, as polynomials in t; every
    root of the polynomial in Q[t] of degree <= 2 is among them.

    The polynomial is read in the scaled variable Y = den u, through the
    integer coefficient lists, low degree first, of its slices p_0, p_1 and
    p_2, the coefficients of 1, s and s^2 (s = t - t0).  The fiber p_0 is
    monic with simple roots, so its rational roots are integers.  It goes
    straight to the p-adic root finder, but read in u: the primitive part of
    p_0(den u), the fiber itself, has smaller integers than the monic p_0,
    and costs the finder less.  Each root u comes back as the integer
    r = den u, which lifts to r + A s + B s^2 with

        p_0'(r) A = -p_1(r),
        p_0'(r) B = -(p_2(r) + p_1'(r) A + p_0''(r) A^2 / 2),

    so A = -e1 / d and B = -e2 / d^3 for the integers d = p_0'(r),
    e1 = p_1(r) and e2 = d^2 p_2(r) - d e1 p_1'(r) + e1^2 p_0''(r) / 2.  Each
    lift, Y = n / e for an integer jet n over the least e, is checked exactly:
    `residual(n, e)`, the polynomial's jet at the lift from the caller's own
    expression for it, not from the p_k, made integral by a power of e, is
    built once and must be zero.  The lift leaves as u = n / (e den) with
    s = t - t0, through one `_canonical`.
    """
    p0, p1, p2 = slices
    d0 = [i * x for i, x in enumerate(p0)][1:]
    h0 = [i * (i - 1) // 2 * x for i, x in enumerate(p0)][2:]  # p_0'' / 2
    d1 = [i * x for i, x in enumerate(p1)][1:]
    in_u = [x * den ** i for i, x in enumerate(p0)]  # p_0(den u)
    lifts = []
    for root in sorted(rational_roots(_canonical(in_u, 1, 1))):
        r = root.numerator * den // root.denominator
        d, e1 = _horner(d0, r), _horner(p1, r)
        e2 = (_horner(p2, r) * d - _horner(d1, r) * e1) * d + _horner(h0, r) * e1 * e1
        d3 = d ** 3
        g1, g2 = math.gcd(e1, d), math.gcd(e2, d3)
        e = math.lcm(d // g1, d3 // g2)
        n = (r * e, -e1 * e // d, -e2 * e // d3)
        if any(residual(n, e)):
            raise InternalInconsistencyError(
                f"lift of the root {Fraction(r, den)} is not a root mod (t - t0)^3")
        n0, n1, n2 = n
        lifts.append(_canonical([n0 - (n1 - n2 * t0) * t0, n1 - 2 * n2 * t0, n2], 1, e * den))
    return lifts


def _halving_slices(a: Jet, b: Jet, c: Jet, x: Jet) -> list[list[int]]:
    """The slices p_0, p_1, p_2 of the halving quartic in Y = D X, for the
    cubic's jets a, b, c and the jet x = D x_P, all over one D:

        Y^4 - 4x Y^3 - (2b + 4ax) Y^2 - (8c + 4bx) Y + b^2 - 4c(a + x)."""
    ax, bx, bb = _jet_product(a, x), _jet_product(b, x), _jet_product(b, b)
    cax = _jet_product(c, (a[0] + x[0], a[1] + x[1], a[2] + x[2]))
    return [[bb[k] - 4 * cax[k], -8 * c[k] - 4 * bx[k], -2 * b[k] - 4 * ax[k], -4 * x[k],
             int(k == 0)] for k in range(3)]


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
    `_lifted_roots`, and a half has that lift as its x.  H is never built
    over Q[t]: its three slices mod (t - t0)^3 are integer lists in Y = D X,
    formed straight from the cubic's integer jets (`fiber_jets`) and the jet
    of x_P, all over one denominator D, and each lift is checked on the jet of
    f'^2 - 4 (a + 2X + x) f from the cubic's jets.  Each candidate X is
    decided by exact checks alone: f(X) = Y^2 a nonzero square, then the
    tangent law (Silverman, AEC III.2.3) as two polynomial identities.  With
    slope f'(X) / 2Y, the double of (X, Y) has x = x_P iff
    f'(X)^2 = 4 f(X) (x_P + c1 + 2X), and then y = y_P iff
    f'(X) (X - x_P) - 2 f(X) = 2 Y y_P; Y = +sqrt f(X) is tried first.  t0 is
    the curve's first smooth fiber, and the jets there its `fiber_jets`, both
    shared with `two_torsion_free`, unless y_P(t0) = 0: then t0 moves on to the
    least smooth fiber where y_P does not vanish, and the jets are built
    there.  A 2-torsion point (y_P = 0) has H = ((X - x_P)^2 - f'(x_P))^2, so
    its candidates are x_P +- sqrt(f'(x_P)), tried in ascending order at a
    smooth fiber that separates them, as the lifts are at t0.
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
            den, a, b, c = curve.fiber_jets
        else:  # the least smooth fiber where y_P does not vanish lies further on
            t0 = _good_fiber(curve, y_p)
            den, a, b, c = _fiber_jets(curve, t0)
        x, dx = x_p.jet(t0)
        m = dx // math.gcd(den, dx)
        if m != 1:  # one denominator for the cubic and x_P: D = lcm(den, dx)
            den *= m
            a, b, c = _jet_scaled(a, m), _jet_scaled(b, m * m), _jet_scaled(c, m ** 3)
        x = _jet_scaled(x, den // dx)

        def residual(n: Jet, e: int) -> Jet:  # e^4 D^4 H at X = n / (e D)
            f_n, fp_n = _cubic_at(a, b, c, n, e)
            lin = tuple(e * (ak + xk) + 2 * nk for ak, xk, nk in zip(a, x, n))
            sq, prod = _jet_product(fp_n, fp_n), _jet_product(lin, f_n)
            return tuple(u - 4 * v for u, v in zip(sq, prod))

        candidates = _lifted_roots(_halving_slices(a, b, c, x), t0, den, residual)
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
    curve's first smooth one, and the cubic is read there through its kept
    integer jets (`fiber_jets`), which `halve` reuses: in Y = D u its slices
    are the jets' coefficient lists, and each lift is checked on the jet of
    F = Y^3 + a Y^2 + b Y + c, evaluated by Horner."""
    den, a, b, c = curve.fiber_jets
    slices = [[c[k], b[k], a[k], int(k == 0)] for k in range(3)]
    lifts = _lifted_roots(slices, curve.good_fiber, den,
                          lambda n, e: _cubic_at(a, b, c, n, e)[0])
    return not any(curve.cubic.eval_u(x).is_zero for x in lifts)
