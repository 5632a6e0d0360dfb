"""Plane-geometry layer: quartics in prepared coordinates, even tangency of
conics, the quadratic-residue symbol, splitting certificates, and Zariski-pair
verdicts.

Prepared coordinates put the marked smooth point at [1,0,0] with tangent line
V = 0, so the affine equation is monic cubic in u and the associated surface
is y^2 = f(t, u).  Inputs are expected in this normal form; the general
reduction of an arbitrary (quartic, point) pair to it is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import mwtable
from .poly import (
    BiPoly,
    RatFn,
    UNIPOLY_ONE,
    UniPoly,
    irreducible_factors,
    is_perfect_square,
    ord_at,
    squarefree_decompose,
)
from .surface import (
    INFINITY_PLACE,
    HeightContext,
    InternalInconsistencyError,
    SectionPoint,
    WeierstrassCurve,
    double,
    halve,
    height_context,
    negate,
    on_curve,
    section_O_intersection,
    two_torsion_free,
)


class PreparedQuartic:
    """Irreducible quartic u^3 + c1(t)u^2 + c2(t)u + c3(t) = 0 in prepared form.

    Irreducibility is certified at the level this package needs: the cubic has
    no root in Q[t] of degree <= 2, which also rules out 2-torsion on the
    associated surface.  `curve` is the rational elliptic surface y^2 = f(t, u).
    """

    __slots__ = ("f", "curve", "_configuration")

    def __init__(self, f: BiPoly, check_irreducible: bool = True):
        if f.degree_u != 3 or f.coeff_u(3) != UNIPOLY_ONE:
            raise ValueError("prepared quartic must be monic of degree 3 in u")
        c1, c2, c3 = f.coeff_u(2), f.coeff_u(1), f.coeff_u(0)
        curve = WeierstrassCurve(c1, c2, c3)  # enforces deg c_k <= 2k, disc != 0
        if check_irreducible and not two_torsion_free(curve):
            raise ValueError("the cubic factors over Q(t): the quartic is not irreducible")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "curve", curve)

    def __setattr__(self, *a):
        raise AttributeError("PreparedQuartic is immutable")

    @property
    def configuration(self) -> SingularConfiguration:
        """The quartic's singular configuration (fibers, singularity type, table
        row, height context), computed on first use and kept: every symbol,
        type and verdict on this quartic reads this one copy."""
        try:
            return self._configuration
        except AttributeError:
            config = singular_configuration(self)
            object.__setattr__(self, "_configuration", config)
            return config

    def __repr__(self):
        from .parsing import bipoly_text

        return f"PreparedQuartic({bipoly_text(self.f)} = 0)"


@dataclass(frozen=True)
class Conic:
    """The conic u = q(t) (deg q = 2), tangent to V = 0 at the marked point."""

    q: UniPoly

    def __post_init__(self):
        if self.q.degree != 2:
            raise ValueError("conic must have the form u = q(t) with deg q = 2")

    def __repr__(self):
        from .parsing import poly_text

        return f"Conic(u = {poly_text(self.q)})"


ContactPlace = Union[UniPoly, str]


@dataclass(frozen=True)
class TangencyReport:
    is_even_tangential: bool
    contact: tuple[tuple[ContactPlace, int], ...]  # (place or 'inf', multiplicity)
    sqrt_witness: Optional[UniPoly]
    note: str = ""

    def contact_point_count(self) -> int:
        return sum(1 if p == INFINITY_PLACE else p.degree for p, _ in self.contact)


def even_tangency(quartic: PreparedQuartic, conic: Conic) -> TangencyReport:
    """Decide even tangency of the conic and the quartic.

    The restriction g(t) = f(t, q(t)) has the affine contact multiplicities as
    root multiplicities, and the marked point absorbs the remaining
    deg-8 Bezout budget.  Even tangency over the ground field amounts to g
    being a square in Q[t] with every contact at a smooth point of the quartic.
    """
    g = quartic.f.eval_u(conic.q)
    if g.is_zero:
        raise ValueError("the conic is a component of the quartic; impossible for irreducible input")
    decomp = squarefree_decompose(g)
    contact_raw: list[tuple[ContactPlace, int]] = []
    for factor, mult in decomp:
        for irr, _one in irreducible_factors(factor):
            contact_raw.append((irr, mult))
    inf_mult = 8 - g.degree
    if inf_mult > 0:
        contact_raw.append((INFINITY_PLACE, inf_mult))
    contact = tuple(contact_raw)
    if any(mult % 2 for _p, mult in contact):
        return TangencyReport(False, contact, None, "odd local intersection multiplicity")
    witness = is_perfect_square(g)
    if witness is None:
        return TangencyReport(
            False, contact, None,
            "even multiplicities, but the restriction is not a square over Q "
            "(leading coefficient is not a rational square)",
        )
    # contacts must avoid the singular points of the quartic
    f_u = quartic.f.deriv_u().eval_u(conic.q)
    f_t = quartic.f.deriv_t().eval_u(conic.q)
    for place, _mult in contact:
        if place == INFINITY_PLACE:
            continue  # the marked point is smooth by assumption
        if ord_at(f_u, place) > 0 and ord_at(f_t, place) > 0:
            return TangencyReport(
                False, contact, None,
                "contact at a singular point of the quartic",
            )
    return TangencyReport(True, contact, witness)


def _require_even(report: TangencyReport) -> TangencyReport:
    if not report.is_even_tangential:
        raise ValueError(f"conic is not even tangential: {report.note}")
    return report


def lift_conic(quartic: PreparedQuartic, conic: Conic) -> tuple[SectionPoint, SectionPoint]:
    """The two sections (q, +h) and (q, -h) over an even tangential conic."""
    return _lifts(quartic, conic, even_tangency(quartic, conic))


def _lifts(
    quartic: PreparedQuartic, conic: Conic, report: TangencyReport
) -> tuple[SectionPoint, SectionPoint]:
    h = _require_even(report).sqrt_witness
    plus = SectionPoint(RatFn(conic.q), RatFn(h))
    minus = SectionPoint(RatFn(conic.q), RatFn(-h))
    curve = quartic.curve
    if not (on_curve(curve, plus) and on_curve(curve, minus)):
        raise InternalInconsistencyError("lifted sections are off the surface")
    if section_O_intersection(curve, plus) != 0:
        raise InternalInconsistencyError("lifted section meets the zero section")
    return plus, minus


def conic_from_section(point: SectionPoint) -> Conic:
    """The image conic u = x(t) of a section with polynomial x of degree <= 2."""
    if point.is_zero:
        raise ValueError("the zero section has no image conic")
    if not point.x.is_polynomial():
        raise ValueError("section with rational-function x-coordinate has no conic image")
    if point.x.num.degree > 2:
        raise ValueError("x-coordinate degree exceeds 2")
    if not point.y.is_polynomial() or point.y.num.degree > 3:
        raise ValueError("section must not meet the zero section (s.O = 0)")
    return Conic(point.x.num)


# ---------------------------------------------------------------------------
# singular configuration and genus
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingularConfiguration:
    sing_type: tuple[str, ...]
    line_class: str
    row: mwtable.TableRow
    context: HeightContext
    notes: tuple[str, ...] = ()


_INF_ROOT = {"I2": "A1", "III": "A1", "I3": "A2", "IV": "A2"}


def singular_configuration(quartic: PreparedQuartic) -> SingularConfiguration:
    """Read the singularity type of the quartic and the tangent-line class off
    the Kodaira fibers, and locate the matching table row."""
    ctx = height_context(quartic.curve)
    inf_pd = next((pd for pd in ctx.places if pd.place == INFINITY_PLACE), None)
    if inf_pd is None:
        raise ValueError("no singular fiber at infinity: input is not in prepared form")
    fam, n = inf_pd.fiber_type_index()
    sing: list[str] = []
    if inf_pd.kodaira in ("I2", "III"):
        line_class = "s"
    elif inf_pd.kodaira in ("I3", "IV"):
        line_class = "b"
    elif fam == "I" and n >= 4:
        line_class = "sb"
        sing.append(f"A{n - 3}")  # the double point the tangent line runs through
    else:
        raise ValueError(
            f"fiber {inf_pd.kodaira} at infinity matches no tabulated configuration"
        )
    roots: list[str] = []
    inf_root = _INF_ROOT.get(inf_pd.kodaira, f"A{n - 1}" if fam == "I" else None)
    if inf_root is None:
        raise ValueError(f"fiber {inf_pd.kodaira} at infinity matches no tabulated configuration")
    roots.append(inf_root)
    for pd in ctx.places:
        if pd.place == INFINITY_PLACE or pd.m_v == 1:
            continue
        label = pd.root_label()
        if label is None:
            continue
        sing.extend([label] * pd.degree)
        roots.extend([label] * pd.degree)
    sing_key = tuple(sorted(sing))
    candidates = mwtable.rows_matching(sing_key, tuple(sorted(roots)))
    exact = [r for r in candidates if r.line_class == line_class]
    notes: tuple[str, ...] = ()
    if exact:
        row = exact[0]
    else:
        flagged = [r for r in candidates if r.has_class_flag]
        if flagged:
            row = flagged[0]
            notes = (
                f"line class {line_class!r} matched row {row.row_no} via its "
                "recorded class discrepancy",
            )
        else:
            raise ValueError(
                f"configuration (sing={sing_key}, class={line_class}, roots={tuple(sorted(roots))}) "
                "matches no row of the table"
            )
    return SingularConfiguration(sing_key, line_class, row, ctx, notes)


_DELTA = {"E6": 3, "E7": 4}


def genus_from_sing(sing_type: tuple[str, ...]) -> int:
    """Geometric genus of the normalized quartic: 3 minus the sum of the
    delta-invariants of its simple singularities."""
    total = 0
    for label in sing_type:
        if label in _DELTA:
            total += _DELTA[label]
            continue
        fam, n = label[0], int(label[1:])
        if fam == "A":
            total += (n + 1) // 2
        elif fam == "D":
            total += n // 2 + 1
        else:
            raise ValueError(f"unknown singularity label {label}")
    genus = 3 - total
    if not 0 <= genus <= 3:
        raise ValueError(f"singularity type {sing_type} is not realized by a quartic")
    return genus


# ---------------------------------------------------------------------------
# the quadratic-residue symbol
# ---------------------------------------------------------------------------

ROUTE_GENUS0 = "genus0"
ROUTE_GENUS_GE2 = "genus>=2"
ROUTE_HALVING = "halving"
ROUTE_HALVING_ABSENCE = "halving-absence"


@dataclass(frozen=True)
class SplittingCertificate:
    """Witness that the quartic splits in the double cover branched along the
    conic: f(t,u) = (a1*(u-q) + a3)^2 + (u - q + a2)^2 * (u - q) with
    deg a_k <= k.  (Over Q the middle sign is forced to +; the variant with a
    minus would make f(t, q) a negative square.)"""

    a1: UniPoly
    a2: UniPoly
    a3: UniPoly


@dataclass(frozen=True)
class SymbolResult:
    value: int  # +1 or -1
    route: str
    tangency: TangencyReport
    witness_section: Optional[SectionPoint] = None
    witness_certificate: Optional[SplittingCertificate] = None


def qr_symbol(quartic: PreparedQuartic, conic: Conic) -> SymbolResult:
    """The symbol (conic/quartic) in {+1, -1}.

    Genus 0 forces +1 and genus >= 2 forces -1; in the remaining genus-1 cases
    the symbol is +1 exactly when the lifted section halves in the
    Mordell-Weil group, and the halving (plus a splitting certificate) is
    attached as a machine-checkable witness.
    """
    report = _require_even(even_tangency(quartic, conic))
    genus = genus_from_sing(quartic.configuration.sing_type)
    if genus == 0:
        return SymbolResult(1, ROUTE_GENUS0, report)
    if genus >= 2:
        return SymbolResult(-1, ROUTE_GENUS_GE2, report)
    s_plus, _s_minus = _lifts(quartic, conic, report)
    s_o = halve(quartic.curve, s_plus)
    if s_o is None:
        return SymbolResult(-1, ROUTE_HALVING_ABSENCE, report)
    cert = _certificate_of_half(quartic, conic, s_o)
    return SymbolResult(1, ROUTE_HALVING, report, s_o, cert)


def splitting_certificate(
    quartic: PreparedQuartic, conic: Conic, s_o: SectionPoint
) -> SplittingCertificate:
    """Build the splitting certificate from a halving section of s_conic^+.

    a2 = q - x(s_o); a1 is the tangent slope of the surface's generic fiber at
    s_o; a3 closes the identity.  Verification is by exact expansion; failure
    is an internal inconsistency, never returned silently.
    """
    s_plus, s_minus = lift_conic(quartic, conic)
    doubled = double(quartic.curve, s_o)
    if doubled == s_minus and doubled != s_plus:
        s_o = negate(quartic.curve, s_o)
        doubled = double(quartic.curve, s_o)
    if doubled != s_plus:
        raise ValueError("the given section does not halve the lifted section")
    return _certificate_of_half(quartic, conic, s_o)


def _certificate_of_half(
    quartic: PreparedQuartic, conic: Conic, s_o: SectionPoint
) -> SplittingCertificate:
    """The certificate from s_o with 2 s_o = s_conic^+ (the caller's guarantee)."""
    f_o = s_o.x.as_unipoly()
    g_o = s_o.y.as_unipoly()
    curve = quartic.curve
    slope = (3 * s_o.x * s_o.x + 2 * curve.c1 * s_o.x + curve.c2) / (2 * s_o.y)
    if not slope.is_polynomial():
        raise InternalInconsistencyError("tangent slope at the halving is not polynomial")
    a1 = slope.as_unipoly()
    a2 = conic.q - f_o
    a3 = g_o + a1 * a2
    cert = SplittingCertificate(a1, a2, a3)
    if not verify_splitting_certificate(quartic, conic, cert):
        raise InternalInconsistencyError("splitting certificate failed exact verification")
    return cert


def verify_splitting_certificate(
    quartic: PreparedQuartic, conic: Conic, cert: SplittingCertificate
) -> bool:
    """Exact polynomial expansion of the certificate identity."""
    if cert.a1.degree > 1 or cert.a2.degree > 2 or cert.a3.degree > 3:
        return False
    q = conic.q
    lin = BiPoly([cert.a3 - cert.a1 * q, cert.a1])  # a1*(u - q) + a3
    shifted = BiPoly([cert.a2 - q, UNIPOLY_ONE])  # u - q + a2
    u_minus_q = BiPoly([-q, UNIPOLY_ONE])
    rhs = lin * lin + shifted * shifted * u_minus_q
    return rhs == quartic.f


# ---------------------------------------------------------------------------
# combinatorial types, Zariski pairs, dihedral feasibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CombinatorialType:
    sing_type: tuple[str, ...]
    line_class: str
    contact_multiset: tuple[int, ...]  # local intersection numbers, one per point


def combinatorial_type(quartic: PreparedQuartic, conic: Conic) -> CombinatorialType:
    return _combinatorial_type(quartic, _require_even(even_tangency(quartic, conic)))


def _combinatorial_type(quartic: PreparedQuartic, report: TangencyReport) -> CombinatorialType:
    config = quartic.configuration
    mults: list[int] = []
    for place, mult in report.contact:
        copies = 1 if place == INFINITY_PLACE else place.degree
        mults.extend([mult] * copies)
    return CombinatorialType(config.sing_type, config.line_class, tuple(sorted(mults)))


VERDICT_ZARISKI = "ZariskiPair"
VERDICT_INCONCLUSIVE = "Inconclusive"
VERDICT_NOT_COMPARABLE = "NotComparable"


@dataclass(frozen=True)
class ZariskiVerdict:
    verdict: str
    type1: CombinatorialType
    type2: CombinatorialType
    symbol1: int
    symbol2: int


def zariski_pair_check(
    pair1: tuple[PreparedQuartic, Conic], pair2: tuple[PreparedQuartic, Conic]
) -> ZariskiVerdict:
    """Equal combinatorial types with opposite symbols make a Zariski pair."""
    return zariski_verdict((pair1[0], qr_symbol(*pair1)), (pair2[0], qr_symbol(*pair2)))


def zariski_verdict(
    pair1: tuple[PreparedQuartic, SymbolResult], pair2: tuple[PreparedQuartic, SymbolResult]
) -> ZariskiVerdict:
    """The verdict on two (quartic, symbol) pairs whose symbols are already
    known; each combinatorial type comes from its symbol's tangency report."""
    t1 = _combinatorial_type(pair1[0], pair1[1].tangency)
    t2 = _combinatorial_type(pair2[0], pair2[1].tangency)
    s1, s2 = pair1[1].value, pair2[1].value
    if t1 != t2:
        verdict = VERDICT_NOT_COMPARABLE
    elif s1 != s2:
        verdict = VERDICT_ZARISKI
    else:
        verdict = VERDICT_INCONCLUSIVE
    return ZariskiVerdict(verdict, t1, t2, s1, s2)


FEASIBLE_ALL_N = "feasible-all-n>=3"
FEASIBLE_UNDETERMINED = "undetermined"
INFEASIBLE_ODD_PRIMES = "infeasible-odd-primes>=5"


@dataclass(frozen=True)
class FeasibilityReport:
    symbol: SymbolResult
    sing_type: tuple[str, ...]
    verdict: str
    detail: str


def dihedral_feasibility(quartic: PreparedQuartic, conic: Conic) -> FeasibilityReport:
    """Existence criteria for dihedral covers branched along the conic-quartic
    pair, as far as the symbol decides them."""
    sym = qr_symbol(quartic, conic)
    xi = quartic.configuration.sing_type
    if sym.value == -1:
        return FeasibilityReport(
            sym, xi, INFEASIBLE_ODD_PRIMES,
            "symbol -1: no dihedral cover of order 2p (p an odd prime >= 5) is "
            "branched along the conic + quartic",
        )
    if xi in (("A1", "A1"), ("A3",)):
        return FeasibilityReport(
            sym, xi, FEASIBLE_ALL_N,
            "symbol +1 with singularity type " + "+".join(xi) + ": both halves of the "
            "pulled-back quartic have bidegree (2,2), so dihedral covers of order 2n "
            "branched at 2*conic + n*quartic exist for every n >= 3",
        )
    return FeasibilityReport(
        sym, xi, FEASIBLE_UNDETERMINED,
        "symbol +1, but for this singularity type the two halves of the pulled-back "
        "quartic need not be linearly equivalent; existence is not decided here",
    )
