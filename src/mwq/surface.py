"""Elliptic curves y^2 = u^3 + c1(t) u^2 + c2(t) u + c3(t) over Q(t), viewed as
rational elliptic surfaces.

The degree bounds deg c_k <= 2k make the surface rational with chi = 1 and the
substitution t -> 1/s, (u, y) -> (u/s^2, y/s^3) an exact model at infinity.
Singular fibers are classified by the valuations of (c4, c6, disc) -- the
residue fields have characteristic zero, so the short form of Tate's algorithm
applies.  Heights follow Shioda's formula

    <s1, s2> = chi + s1.O + s2.O - s1.s2 - sum_v Corr_v(s1, s2)

with Corr_v read off the negative inverse of the fiber component matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional, Union

from .lattice import InternalInconsistencyError, ade_gram
from .poly import (
    T,
    UNIPOLY_ONE,
    UNIPOLY_ZERO,
    BiPoly,
    RatFn,
    UniPoly,
    interpolate,
    irreducible_factors,
    is_perfect_square,
    ord_at,
    poly_gcd,
    rational_roots,
    squarefree_decompose,
)

INFINITY_PLACE = "inf"
Place = Union[UniPoly, str]
# Manual component assignments, keyed by (place, section), for fibers where
# the automated assignment declines; read, never written, by the height code.
ManualComponents = Mapping[tuple[Place, "SectionPoint"], int]
NO_MANUAL: ManualComponents = MappingProxyType({})

_BIG = 10 ** 9


class NeedsManualComponent(ValueError):
    """Component index not automatable; callers may supply it explicitly."""


class NeedsManualIntersection(ValueError):
    """Pair intersection outside the supported local configurations."""


# ---------------------------------------------------------------------------
# sections and curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SectionPoint:
    """A point of the Mordell-Weil group: the zero section O, or (x, y) in Q(t)."""

    x: Optional[RatFn]
    y: Optional[RatFn]

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
    """y^2 = u^3 + c1 u^2 + c2 u + c3 with deg c_k <= 2k and nonzero discriminant."""

    __slots__ = ("c1", "c2", "c3", "_disc")

    def __init__(self, c1: UniPoly, c2: UniPoly, c3: UniPoly):
        for k, c in enumerate((c1, c2, c3), start=1):
            if c.degree > 2 * k:
                raise ValueError(f"deg c{k} = {c.degree} exceeds the bound {2 * k}")
        disc = cubic_discriminant(c1, c2, c3)
        if disc.is_zero:
            raise ValueError("discriminant vanishes identically")
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "c3", c3)
        object.__setattr__(self, "_disc", disc)

    def __setattr__(self, *a):
        raise AttributeError("WeierstrassCurve is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, WeierstrassCurve)
            and (self.c1, self.c2, self.c3) == (other.c1, other.c2, other.c3)
        )

    def __hash__(self):
        return hash((self.c1, self.c2, self.c3))

    def cubic(self) -> BiPoly:
        return BiPoly([self.c3, self.c2, self.c1, UNIPOLY_ONE])

    def rhs(self, x: RatFn) -> RatFn:
        return ((x + self.c1) * x + self.c2) * x + self.c3

    def discriminant(self) -> UniPoly:
        return self._disc

    def c4_quantity(self) -> UniPoly:
        # c4 up to the constant 16; only valuations are ever used
        return self.c1 * self.c1 - 3 * self.c2

    def c6_quantity(self) -> UniPoly:
        # c6 up to the constant -32
        return 2 * self.c1 ** 3 - 9 * self.c1 * self.c2 + 27 * self.c3

    def infinity_model(self) -> "WeierstrassCurve":
        """The same surface in the chart s = 1/t, via c_k -> s^(2k) c_k(1/s)."""
        return WeierstrassCurve(
            self.c1.reversed_at(2), self.c2.reversed_at(4), self.c3.reversed_at(6)
        )

    def __repr__(self):
        from .parsing import bipoly_text

        return f"WeierstrassCurve(y^2 = {bipoly_text(self.cubic())})"


def cubic_discriminant(c1: UniPoly, c2: UniPoly, c3: UniPoly) -> UniPoly:
    return (
        18 * c1 * c2 * c3
        - 4 * c1 ** 3 * c3
        + c1 ** 2 * c2 ** 2
        - 4 * c2 ** 3
        - 27 * c3 ** 2
    )


# ---------------------------------------------------------------------------
# group law
# ---------------------------------------------------------------------------


def on_curve(curve: WeierstrassCurve, point: SectionPoint) -> bool:
    if point.is_zero:
        return True
    return point.y * point.y == curve.rhs(point.x)


def _require_on_curve(curve: WeierstrassCurve, *points: SectionPoint):
    for p in points:
        if not on_curve(curve, p):
            raise ValueError(f"point {p!r} is not on the curve")


def negate(curve: WeierstrassCurve, point: SectionPoint) -> SectionPoint:
    _require_on_curve(curve, point)
    if point.is_zero:
        return point
    return SectionPoint(point.x, -point.y)


def add(curve: WeierstrassCurve, p: SectionPoint, q: SectionPoint) -> SectionPoint:
    _require_on_curve(curve, p, q)
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
    _require_on_curve(curve, p)
    if p.is_zero or p.y.is_zero:
        return SectionPoint.zero()
    lam = (3 * p.x * p.x + 2 * curve.c1 * p.x + curve.c2) / (2 * p.y)
    x3 = lam * lam - curve.c1 - 2 * p.x
    y3 = lam * (p.x - x3) - p.y
    return SectionPoint(x3, y3)


def multiple(curve: WeierstrassCurve, n: int, p: SectionPoint) -> SectionPoint:
    if n < 0:
        return multiple(curve, -n, negate(curve, p))
    acc = SectionPoint.zero()
    for _ in range(n):
        acc = add(curve, acc, p)
    return acc


def section_at_infinity(point: SectionPoint) -> SectionPoint:
    """Coordinates of the section in the s = 1/t chart: (s^2 x(1/s), s^3 y(1/s))."""
    if point.is_zero:
        return point
    return SectionPoint(_ratfn_infinity(point.x, 2), _ratfn_infinity(point.y, 3))


def _ratfn_infinity(r: RatFn, weight: int) -> RatFn:
    if r.is_zero:
        return r
    dn, dd = r.num.degree, r.den.degree
    num = r.num.reversed_at(dn)
    den = r.den.reversed_at(dd)
    k = weight + dd - dn
    if k >= 0:
        return RatFn(num * T ** k, den)
    return RatFn(num, den * T ** (-k))


# ---------------------------------------------------------------------------
# fiber classification (Tate over residue characteristic zero)
# ---------------------------------------------------------------------------

_EULER = {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}


@dataclass(frozen=True, eq=False)
class PlaceData:
    """A place of bad reduction together with its fiber data.

    `a_v` is the intersection matrix of the non-identity components; component 0
    is the one met by the zero section.
    """

    place: Place
    kodaira: str
    m_v: int
    a_v: tuple[tuple[int, ...], ...]
    degree: int
    euler: int
    v_disc: int
    chart_curve: WeierstrassCurve
    chart_place: UniPoly
    sing_u: Optional[Fraction] = None

    @property
    def label(self) -> str:
        from .parsing import poly_text

        return INFINITY_PLACE if self.place == INFINITY_PLACE else poly_text(self.place)

    def fiber_type_index(self) -> tuple[str, int]:
        """('I', n), ('I*', n) or ('II'|'III'|'IV'|'IV*'|'III*'|'II*', 0)."""
        k = self.kodaira
        if k.startswith("I") and k[1:].isdigit():
            return "I", int(k[1:])
        if k.startswith("I") and k.endswith("*") and k[1:-1].isdigit():
            return "I*", int(k[1:-1])
        return k, 0

    def root_label(self) -> Optional[str]:
        """ADE label of the fiber's non-identity component lattice, if any."""
        fam, n = self.fiber_type_index()
        if fam == "I":
            return f"A{n - 1}" if n >= 2 else None
        if fam == "I*":
            return f"D{n + 4}"
        return {"II": None, "III": "A1", "IV": "A2", "IV*": "E6", "III*": "E7", "II*": "E8"}[fam]

    def neg_a_inv(self) -> tuple[tuple[Fraction, ...], ...]:
        from .lattice import _invert

        inv = _invert(tuple(tuple(Fraction(x) for x in row) for row in self.a_v)) if self.a_v else ()
        return tuple(tuple(-x for x in row) for row in inv)


def _classify(v_c4: int, v_c6: int, v_disc: int) -> str:
    if v_c4 == 0:
        return f"I{v_disc}"
    if v_disc == 2:
        return "II"
    if v_disc == 3:
        return "III"
    if v_disc == 4:
        return "IV"
    if v_disc == 6:
        return "I0*"
    if v_c4 == 2 and v_c6 == 3 and v_disc >= 7:
        return f"I{v_disc - 6}*"
    if v_disc == 8:
        return "IV*"
    if v_disc == 9:
        return "III*"
    if v_disc == 10:
        return "II*"
    raise ValueError(
        f"unrecognized fiber data v(c4)={v_c4}, v(c6)={v_c6}, v(disc)={v_disc}; "
        "the model is not minimal at this place"
    )


def _fiber_shape(kodaira: str) -> tuple[int, int, Optional[tuple[str, int]]]:
    """(m_v, euler, root lattice of non-identity components)."""
    if kodaira.startswith("I") and kodaira[1:].isdigit():
        n = int(kodaira[1:])
        return (1, 1, None) if n == 1 else (n, n, ("A", n - 1))
    if kodaira.startswith("I") and kodaira.endswith("*") and kodaira[1:-1].isdigit():
        n = int(kodaira[1:-1])
        return (5 + n, 6 + n, ("D", 4 + n))
    return {
        "II": (1, 2, None),
        "III": (2, 3, ("A", 1)),
        "IV": (3, 4, ("A", 2)),
        "IV*": (7, 8, ("E", 6)),
        "III*": (8, 9, ("E", 7)),
        "II*": (9, 10, ("E", 8)),
    }[kodaira]


def kodaira_type_at(curve: WeierstrassCurve, place: Place) -> PlaceData:
    """Fiber type, component count and intersection matrix at a bad place.

    The place is a monic irreducible polynomial, or INFINITY_PLACE (handled by
    the exact twisted substitution, valid because deg c_k <= 2k).
    """
    if place == INFINITY_PLACE:
        chart = curve.infinity_model()
        p = T
        degree = 1
    else:
        if not isinstance(place, UniPoly) or place.degree < 1:
            raise ValueError("place must be a monic irreducible polynomial or 'inf'")
        chart = curve
        p = place.monic()
        degree = p.degree
    v_disc = ord_at(chart.discriminant(), p)
    if v_disc == 0:
        raise ValueError("nonsingular place: the fiber there is smooth")
    v_c4 = ord_at(chart.c4_quantity(), p)
    v_c6 = ord_at(chart.c6_quantity(), p)
    kod = _classify(v_c4, v_c6, v_disc)
    m_v, euler, root = _fiber_shape(kod)
    if root is None:
        a_v: tuple[tuple[int, ...], ...] = ()
    else:
        gram = ade_gram(*root).gram
        a_v = tuple(tuple(-int(x) for x in row) for row in gram)
    sing_u = _singular_u(chart, p) if degree == 1 else None
    return PlaceData(
        place=place if place == INFINITY_PLACE else p,
        kodaira=kod,
        m_v=m_v,
        a_v=a_v,
        degree=degree,
        euler=euler,
        v_disc=v_disc,
        chart_curve=chart,
        chart_place=p,
        sing_u=sing_u,
    )


def _singular_u(chart: WeierstrassCurve, p: UniPoly) -> Fraction:
    """u-coordinate of the singular point of the reduced fiber (rational place)."""
    a = -p.coeffs[0]
    reduced = UniPoly.of(chart.c3(a), chart.c2(a), chart.c1(a), 1)
    g = poly_gcd(reduced, reduced.derivative())
    if g.degree == 1:
        return -g.coeffs[0]
    if g.degree == 2:
        u0 = -g.coeffs[1] / 2
        if g != UniPoly.of(u0 * u0, -2 * u0, 1):
            raise InternalInconsistencyError("repeated factor of the fiber cubic is not a square")
        return u0
    raise InternalInconsistencyError("singular fiber without a repeated root")


# ---------------------------------------------------------------------------
# component assignment
# ---------------------------------------------------------------------------


def _chart_coords(pd: PlaceData, point: SectionPoint) -> SectionPoint:
    return section_at_infinity(point) if pd.place == INFINITY_PLACE else point


def _series_of(r: RatFn, a: Fraction, n: int) -> UniPoly:
    """Power-series expansion of r at t = a (denominator must be a unit there)."""
    den = r.den.shift(a)
    if den.coeffs and den.coeffs[0] == 0:
        raise ZeroDivisionError("pole at the expansion point")
    return r.num.shift(a).truncate(n).mul_trunc(den.inverse_series(n), n)


def component_of(pd: PlaceData, point: SectionPoint, manual: ManualComponents = NO_MANUAL) -> int:
    """Index of the fiber component met by the section, 0 being the identity
    component.  Automated for I_n and III fibers over rational places (and the
    infinity chart); anything else must be supplied in `manual`."""
    if point.is_zero:
        return 0
    if (pd.place, point) in manual:
        return manual[pd.place, point]
    if pd.m_v == 1:
        return 0
    if pd.degree != 1 or pd.sing_u is None:
        raise NeedsManualComponent(
            f"component at place {pd.label} needs a manual assignment"
        )
    cp = _chart_coords(pd, point)
    a = -pd.chart_place.coeffs[0]
    if cp.x.ord_at(pd.chart_place) < 0:
        return 0  # the section passes through the zero point of this fiber
    xbar, ybar = cp.x(a), cp.y(a)
    if (xbar, ybar) != (pd.sing_u, Fraction(0)):
        return 0
    if pd.kodaira == "III":
        return 1
    if pd.fiber_type_index()[0] == "I" and pd.m_v >= 2:
        return _cycle_index(pd, cp, a)
    raise NeedsManualComponent(
        f"component on a {pd.kodaira} fiber needs a manual assignment"
    )


def _cycle_index(pd: PlaceData, cp: SectionPoint, a: Fraction) -> int:
    """Component index on an I_n cycle, for a section through the node.

    Locally the surface is eta^2 = (xi'^2 - D) * unit with v(D) = n; the two
    branch directions orient the cycle, and v(xi') determines the index up to
    that orientation.  All series arithmetic is exact and truncated at order
    n + 4, which is more precision than any compared valuation.
    """
    n = pd.v_disc
    prec = n + 4
    chart = pd.chart_curve
    u0 = pd.sing_u
    c1s = chart.c1.shift(a).truncate(prec)
    c2s = chart.c2.shift(a).truncate(prec)
    c3s = chart.c3.shift(a).truncate(prec)
    # cubic recentered at the node: C0(u) = u^3 + e2 u^2 + e1 u + e0
    e2 = (3 * u0 + c1s).truncate(prec)
    e1 = (3 * u0 * u0 + 2 * u0 * c1s + c2s).truncate(prec)
    e0 = (((c1s + u0) * u0 + c2s) * u0 + c3s).truncate(prec)
    c = e2.coeff(0)
    if c == 0:
        raise InternalInconsistencyError("node without distinct tangent directions")

    def c0_at(r: UniPoly) -> UniPoly:
        return ((r + e2).mul_trunc(r, prec) + e1).mul_trunc(r, prec) + e0

    def c0_deriv_at(r: UniPoly) -> UniPoly:
        return (3 * r + 2 * e2).mul_trunc(r, prec) + e1

    root = UniPoly.const(-c)
    for _ in range(prec.bit_length() + 1):
        corr = c0_at(root).mul_trunc(c0_deriv_at(root).inverse_series(prec), prec)
        root = (root - corr).truncate(prec)
    if not c0_at(root).truncate(prec).is_zero:
        raise InternalInconsistencyError("Newton lift of the fiber node failed")
    p_lin = (e2 + root).truncate(prec)
    q_lin = (e1 + p_lin.mul_trunc(root, prec)).truncate(prec)
    d_ser = (p_lin.mul_trunc(p_lin, prec) * Fraction(1, 4) - q_lin).truncate(prec)
    if d_ser.trailing_order() != n:
        raise InternalInconsistencyError("local discriminant order does not match I_n")
    x_ser = (_series_of(cp.x, a, prec) - u0 + p_lin * Fraction(1, 2)).truncate(prec)
    m = min(x_ser.trailing_order(), _BIG)
    if 2 * m >= n:
        if n % 2:
            raise InternalInconsistencyError("deep node contact on an odd cycle")
        return n // 2
    y_ser = _series_of(cp.y, a, prec)
    if y_ser.trailing_order() < m:
        raise InternalInconsistencyError("section coordinates violate the node geometry")
    xi_unit = UniPoly(x_ser.coeffs[m:])
    ratio = y_ser.mul_trunc(xi_unit.inverse_series(prec), prec)
    w = ratio.coeff(m)
    if w * w != c:
        raise InternalInconsistencyError("branch direction is not a residue square root")
    return n - m if w > 0 else m


def corr_v(
    pd: PlaceData, p: SectionPoint, q: SectionPoint, manual: ManualComponents = NO_MANUAL
) -> Fraction:
    """Local correction (-A_v^{-1}) contribution for one place."""
    i = component_of(pd, p, manual)
    j = i if p == q else component_of(pd, q, manual)
    if i == 0 or j == 0:
        return Fraction(0)
    return pd.neg_a_inv()[i - 1][j - 1]


def corr_cycle_closed_form(n: int, i: int, j: int) -> Fraction:
    """i(n-j)/n for components i <= j on an I_n cycle."""
    i, j = min(i, j), max(i, j)
    return Fraction(i * (n - j), n)


# ---------------------------------------------------------------------------
# intersection numbers
# ---------------------------------------------------------------------------


def section_O_intersection(curve: WeierstrassCurve, point: SectionPoint) -> int:
    """Intersection number with the zero section, from the pole structure of x."""
    if point.is_zero:
        raise ValueError("O.O is not defined here; self-pairings go through the height")
    _require_on_curve(curve, point)
    total = 0
    for p, mult in irreducible_factors(point.x.den):
        total += p.degree * ((mult + 1) // 2)
    inf_pole = point.x.num.degree - point.x.den.degree - 2
    if inf_pole > 0:
        total += (inf_pole + 1) // 2
    return total


def section_pair_intersection(
    curve: WeierstrassCurve, p: SectionPoint, q: SectionPoint
) -> int:
    """s1.s2 as a sum of local coincidence multiplicities.

    At places where the two sections reduce to the same smooth fiber point the
    multiplicity is ord(x_p - x_q), or ord(y_p - y_q) when the common y-value
    vanishes.  Coincidences at a singular fiber point contribute 0 when the
    sections sit on different components of the resolved cycle; the remaining
    configurations are settled by translation invariance, s1.s2 = (s1 - s2).O.
    """
    if p.is_zero or q.is_zero:
        raise ValueError("pair intersection needs two nonzero sections")
    if p == q:
        raise ValueError("pair intersection of a section with itself")
    _require_on_curve(curve, p, q)
    direct = _pair_direct(curve, p, q)
    if direct is not None:
        return direct
    return section_O_intersection(curve, add(curve, p, negate(curve, q)))


def _pair_direct(curve: WeierstrassCurve, p: SectionPoint, q: SectionPoint) -> Optional[int]:
    total = 0
    for chart, pp, qq, places in _pair_charts(curve, p, q):
        for place in places:
            local = _pair_local(chart, place, pp, qq)
            if local is None:
                return None
            total += place.degree * local
    return total


def _pair_charts(curve, p, q):
    dx = p.x - q.x
    dy = p.y - q.y
    finite_src = dx.num if not dx.is_zero else dy.num
    finite = [f for f, _ in irreducible_factors(finite_src)]
    yield curve, p, q, finite
    inf_curve = curve.infinity_model()
    pi, qi = section_at_infinity(p), section_at_infinity(q)
    yield inf_curve, pi, qi, [T]


def _pair_local(chart: WeierstrassCurve, place: UniPoly, p: SectionPoint, q: SectionPoint):
    vpd = ord_at(p.x.den, place)
    vqd = ord_at(q.x.den, place)
    if vpd > 0 and vqd > 0:
        return None  # both sections meet the fiber at the zero point
    if vpd > 0 or vqd > 0:
        return 0
    xnp = _ratfn_mod(p.x, place)
    xnq = _ratfn_mod(q.x, place)
    if xnp != xnq:
        return 0
    ynp = _ratfn_mod(p.y, place)
    ynq = _ratfn_mod(q.y, place)
    if ynp != ynq:
        return 0
    dx = p.x - q.x
    dy = p.y - q.y
    if not ynp.is_zero:
        return dx.ord_at(place) if not dx.is_zero else None
    # common reduced point with y = 0: a 2-torsion point, or the fiber's
    # singular point when the place divides the discriminant
    if ord_at(chart.discriminant(), place) == 0:
        return dy.ord_at(place) if not dy.is_zero else None
    if place.degree != 1:
        return None
    pd = kodaira_type_at(chart, place)
    if pd.sing_u is None or xnp != UniPoly.const(pd.sing_u):
        return dy.ord_at(place) if not dy.is_zero else None
    if pd.fiber_type_index()[0] != "I":
        return None
    try:
        i = component_of(pd, p)
        j = component_of(pd, q)
    except NeedsManualComponent:
        return None
    if i != j:
        return 0
    return None  # same component through the node: settled by translation


def _ratfn_mod(r: RatFn, place: UniPoly) -> UniPoly:
    """r modulo an irreducible place at which r has no pole."""
    num = r.num % place
    den = r.den % place
    g, s, _ = poly_ext_gcd(den, place)
    if g.degree != 0:
        raise ZeroDivisionError("pole at the place")
    return (num * s * (1 / g.coeffs[0])) % place


def poly_ext_gcd(a: UniPoly, b: UniPoly):
    """(g, s, t) with s a + t b = g; g is not normalized to monic."""
    r0, r1 = a, b
    s0, s1 = UNIPOLY_ONE, UNIPOLY_ZERO
    t0, t1 = UNIPOLY_ZERO, UNIPOLY_ONE
    while not r1.is_zero:
        qt, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - qt * s1
        t0, t1 = t1, t0 - qt * t1
    return r0, s0, t0


# ---------------------------------------------------------------------------
# height pairing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeightContext:
    """A curve together with all of its bad places; Euler numbers must sum to
    12*chi (and chi = 1 here: the surface is rational)."""

    curve: WeierstrassCurve
    chi: Fraction
    places: tuple[PlaceData, ...]


def height_context(curve: WeierstrassCurve) -> HeightContext:
    """Classify every bad fiber of the curve.  The context is immutable, so one
    context serves every height pairing on the curve; manual component
    assignments are passed to `height_pairing`, not stored here."""
    places = []
    for sqfree, _mult in squarefree_decompose(curve.discriminant()):
        for irr, _one in irreducible_factors(sqfree):
            places.append(kodaira_type_at(curve, irr))
    inf_model = curve.infinity_model()
    if ord_at(inf_model.discriminant(), T) > 0:
        places.append(kodaira_type_at(curve, INFINITY_PLACE))
    total = sum(pd.degree * pd.euler for pd in places)
    if total != 12:
        raise InternalInconsistencyError(
            f"Euler numbers of the fibers sum to {total}, not 12"
        )
    places.sort(key=lambda pd: (pd.place == INFINITY_PLACE, pd.chart_place.coeffs))
    return HeightContext(curve, Fraction(1), tuple(places))


def height_pairing(
    ctx: HeightContext, p: SectionPoint, q: SectionPoint, manual: ManualComponents = NO_MANUAL
) -> Fraction:
    """Shioda's pairing; pairing anything with the zero section is 0."""
    if p.is_zero or q.is_zero:
        return Fraction(0)
    _require_on_curve(ctx.curve, p, q)
    corr = sum(pd.degree * corr_v(pd, p, q, manual) for pd in ctx.places)
    if p == q:
        return 2 * ctx.chi + 2 * section_O_intersection(ctx.curve, p) - corr
    return (
        ctx.chi
        + section_O_intersection(ctx.curve, p)
        + section_O_intersection(ctx.curve, q)
        - section_pair_intersection(ctx.curve, p, q)
        - corr
    )


# ---------------------------------------------------------------------------
# halving (2-divisibility) and 2-torsion
# ---------------------------------------------------------------------------


def _specialization_points(curve: WeierstrassCurve, count: int) -> list[Fraction]:
    """The first `count` integers t0 >= 0 at good fibers (disc(t0) != 0)."""
    disc = curve.discriminant()
    pts = []
    k = 0
    while len(pts) < count:
        c = Fraction(k)
        if disc(c) != 0:
            pts.append(c)
        k += 1
    return pts


def _halving_quartic(curve: WeierstrassCurve, t0: Fraction, rho: Fraction) -> UniPoly:
    """Monic quartic whose roots are the x-coordinates of halvings of any point
    with x = rho on the specialized fiber: f'(X)^2 - 4 (a2 + 2X + rho) f(X)."""
    a2, a4, a6 = curve.c1(t0), curve.c2(t0), curve.c3(t0)
    f = UniPoly.of(a6, a4, a2, 1)
    fp = f.derivative()
    return fp * fp - UniPoly.of(4 * a2 + 4 * rho, 8) * f


def halve(curve: WeierstrassCurve, point: SectionPoint) -> Optional[SectionPoint]:
    """A section s_o with 2 s_o = point, or None if no such section exists.

    Requires polynomial coordinates with deg x <= 2, deg y <= 3 (equivalently
    s.O = 0); any half of such a section again has polynomial coordinates
    within the same bounds, so specializing at three good fibers, collecting
    rational roots of the degree-4 halving polynomial, interpolating every
    branch choice and verifying the doubled candidate exactly is a complete
    decision procedure.  Two further specializations pre-filter candidates.
    """
    _require_on_curve(curve, point)
    if point.is_zero:
        raise ValueError("halving the zero section")
    if not (point.x.is_polynomial() and point.y.is_polynomial()):
        raise ValueError("halving needs polynomial coordinates (s.O = 0)")
    if point.x.num.degree > 2 or point.y.num.degree > 3:
        raise ValueError("halving needs deg x <= 2 and deg y <= 3 (s.O = 0)")
    pts = _specialization_points(curve, 5)
    quartics = []
    root_sets: list[list[Fraction]] = []
    for t0 in pts:
        h = _halving_quartic(curve, t0, point.x(t0))
        quartics.append(h)
        roots = sorted(set(rational_roots(h)))
        if not roots:
            return None
        root_sets.append(roots)
    seen: set[UniPoly] = set()
    for combo in itertools.product(*root_sets[:3]):
        cand = interpolate(list(zip(pts[:3], combo)), 2)
        if cand is None or cand in seen:
            continue
        seen.add(cand)
        if any(quartics[k](cand(pts[k])) != 0 for k in (3, 4)):
            continue
        w = ((cand + curve.c1) * cand + curve.c2) * cand + curve.c3
        g = is_perfect_square(w)
        if g is None:
            continue
        for y_half in (g, -g):
            s_o = SectionPoint(RatFn(cand), RatFn(y_half))
            if double(curve, s_o) == point:
                return s_o
    return None


def two_torsion_free(curve: WeierstrassCurve) -> bool:
    """True iff the cubic has no root in Q[t] of degree <= 2; the same
    specialize-interpolate-verify search as `halve`."""
    pts = _specialization_points(curve, 4)
    cubic = curve.cubic()
    root_sets = []
    for t0 in pts[:3]:
        spec = UniPoly.of(curve.c3(t0), curve.c2(t0), curve.c1(t0), 1)
        roots = sorted(set(rational_roots(spec)))
        if not roots:
            return True
        root_sets.append(roots)
    for combo in itertools.product(*root_sets):
        cand = interpolate(list(zip(pts[:3], combo)), 2)
        if cand is None:
            continue
        if cubic.eval_u(cand).is_zero:
            return False
    return True
