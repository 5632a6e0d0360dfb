"""Plane-geometry layer: quartics in prepared coordinates, even tangency of
conics, the quadratic-residue symbol, splitting certificates, and Zariski-pair
verdicts.

Prepared coordinates put the marked smooth point at [1,0,0] with tangent line
V = 0, so the affine equation is monic cubic in u and the associated surface
is y^2 = f(t, u).  Inputs are expected in this normal form; the general
reduction of an arbitrary (quartic, point) pair to it is out of scope.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Optional, Union

from . import mwtable
from .poly import (
    BiPoly,
    RatFn,
    UniPoly,
    is_perfect_square,
    poly_gcd,
    squarefree_places,
)
from .surface import (
    INFINITY_PLACE,
    HeightContext,
    InternalInconsistencyError,
    SectionPoint,
    WeierstrassCurve,
    halve,
    height_context,
    two_torsion_free,
)


class PreparedQuartic:
    """Irreducible quartic u^3 + c1(t)u^2 + c2(t)u + c3(t) = 0 in prepared form.

    Irreducibility is certified at the level this package needs: the cubic has
    no root in Q[t] of degree <= 2, which also rules out 2-torsion on the
    associated surface; construction refuses any other f.  A frozen value:
    `curve`, the rational elliptic surface y^2 = f(t, u), `configuration` and
    the partial derivative `f_t` are each built on first use and kept; f_u is
    the curve's `cubic_u`.
    """

    def __init__(self, f: BiPoly):
        vars(self)["f"] = f
        if not two_torsion_free(self.curve):  # the curve checks monic, deg c_k <= 2k, disc != 0
            raise ValueError("the cubic factors over Q(t): the quartic is not irreducible")

    def __setattr__(self, *a):
        raise AttributeError("PreparedQuartic is immutable")

    def __eq__(self, other) -> bool:
        return self.f == other.f if type(other) is PreparedQuartic else NotImplemented

    def __hash__(self):
        return hash(self.f)

    @cached_property
    def curve(self) -> WeierstrassCurve:
        return WeierstrassCurve.from_cubic(self.f)

    @cached_property
    def f_t(self) -> BiPoly:
        return self.f.deriv_t()

    @cached_property
    def configuration(self) -> SingularConfiguration:
        """The quartic's singular configuration (fibers, singularity type, table
        row, height context): every symbol, type and verdict on this quartic
        reads this one copy."""
        return singular_configuration(self)

    def __repr__(self):
        from .parsing import bipoly_text

        return f"PreparedQuartic({bipoly_text(self.f)} = 0)"


class Conic:
    """The conic u = q(t) (deg q = 2), tangent to V = 0 at the marked point."""

    __slots__ = ("q",)

    def __init__(self, q: UniPoly):
        if q.degree != 2:
            raise ValueError("conic must have the form u = q(t) with deg q = 2")
        object.__setattr__(self, "q", q)

    def __setattr__(self, *a):
        raise AttributeError("Conic is immutable")

    def __eq__(self, other) -> bool:
        return self.q == other.q if type(other) is Conic else NotImplemented

    def __hash__(self):
        return hash(self.q)

    def __repr__(self):
        from .parsing import poly_text

        return f"Conic(u = {poly_text(self.q)})"


ContactPlace = Union[UniPoly, str]


class TangencyReport(NamedTuple):
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
    The contact places are the `squarefree_places` of its square root h, of
    degree <= 3 (deg g <= 6, as deg c_k <= 2k), with the multiplicities
    doubled, or of g itself only when it is not a square.  A place is a block
    of roots, not factored further, so a contact at a singular point is found
    by a gcd: gcd(h, f_u, f_t) is nontrivial exactly when gcd(place, f_u, f_t)
    is for some place.  It is taken as gcd(gcd(h, f_u), f_t), and f_t (with
    the quartic's `f_t`) is read only where gcd(h, f_u) is nontrivial.
    """
    g = quartic.f.eval_u(conic.q)  # nonzero: construction refuses a root q of the cubic
    witness = is_perfect_square(g)
    contact_raw: list[tuple[ContactPlace, int]] = (
        squarefree_places(g) if witness is None
        else [(p, 2 * mult) for p, mult in squarefree_places(witness)])
    if len(contact_raw) > 1:
        contact_raw.sort(key=lambda fm: (fm[1], fm[0].degree, fm[0].coeffs))
    inf_mult = 8 - g.degree
    if inf_mult > 0:
        contact_raw.append((INFINITY_PLACE, inf_mult))
    contact = tuple(contact_raw)
    if any(mult % 2 for _p, mult in contact):
        return TangencyReport(False, contact, None, "odd local intersection multiplicity")
    if witness is None:
        return TangencyReport(
            False, contact, None,
            "even multiplicities, but the restriction is not a square over Q "
            "(leading coefficient is not a rational square)",
        )
    # contacts must avoid the singular points of the quartic; the marked point
    # is smooth by assumption, and every other contact is a root of h
    common = poly_gcd(quartic.curve.cubic_u.eval_u(conic.q), witness)
    if common.degree > 0 and poly_gcd(common, quartic.f_t.eval_u(conic.q)).degree > 0:
        return TangencyReport(False, contact, None, "contact at a singular point of the quartic")
    return TangencyReport(True, contact, witness)


# ---------------------------------------------------------------------------
# singular configuration and genus
# ---------------------------------------------------------------------------


class SingularConfiguration(NamedTuple):
    sing_type: tuple[str, ...]
    line_class: str
    row: mwtable.TableRow
    context: HeightContext


def singular_configuration(quartic: PreparedQuartic) -> SingularConfiguration:
    """Read the singularity type of the quartic and the tangent-line class off
    the Kodaira fibers, and locate the matching table row."""
    ctx = height_context(quartic.curve)
    inf_pd = next((pd for pd in ctx.places if pd.place == INFINITY_PLACE), None)
    if inf_pd is None:
        raise ValueError("no singular fiber at infinity: input is not in prepared form")
    sing: list[str] = []
    if inf_pd.kodaira in ("I2", "III"):
        line_class = "s"
    elif inf_pd.kodaira in ("I3", "IV"):
        line_class = "b"
    elif inf_pd.family == "I" and inf_pd.n >= 4:
        line_class = "sb"
        sing.append(f"A{inf_pd.n - 3}")  # the double point the tangent line runs through
    else:
        raise ValueError(
            f"fiber {inf_pd.kodaira} at infinity matches no tabulated configuration"
        )
    roots = [inf_pd.root_label()]
    for pd in ctx.places:
        label = pd.root_label()
        if pd.place == INFINITY_PLACE or label is None:
            continue
        sing.extend([label] * pd.degree)
        roots.extend([label] * pd.degree)
    sing_key = tuple(sorted(sing))
    row = mwtable.row_matching(sing_key, roots)
    if row is None:
        raise ValueError(
            f"configuration (sing={sing_key}, class={line_class}, roots={tuple(sorted(roots))}) "
            "matches no row of the table"
        )
    return SingularConfiguration(sing_key, line_class, row, ctx)


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


class SplittingCertificate(NamedTuple):
    """Witness that the quartic splits in the double cover branched along the
    conic: f(t,u) = (a1*(u-q) + a3)^2 + (u - q + a2)^2 * (u - q) with
    deg a_k <= k.  (Over Q the middle sign is forced to +; the variant with a
    minus would make f(t, q) a negative square.)"""

    a1: UniPoly
    a2: UniPoly
    a3: UniPoly


class SymbolResult(NamedTuple):
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
    report = even_tangency(quartic, conic)
    if not report.is_even_tangential:
        raise ValueError(f"conic is not even tangential: {report.note}")
    genus = genus_from_sing(quartic.configuration.sing_type)
    if genus == 0:
        return SymbolResult(1, ROUTE_GENUS0, report)
    if genus >= 2:
        return SymbolResult(-1, ROUTE_GENUS_GE2, report)
    # the lift (q, +h), h the square root of f(t, q) in the report: h^2 = f(t, q)
    # was verified by `is_perfect_square`, so the lift lies on the curve
    s_o = halve(quartic.curve, SectionPoint(RatFn(conic.q), RatFn(report.sqrt_witness)))
    if s_o is None:
        return SymbolResult(-1, ROUTE_HALVING_ABSENCE, report)
    cert = _certificate_of_half(quartic, conic, s_o)
    return SymbolResult(1, ROUTE_HALVING, report, s_o, cert)


def _certificate_of_half(
    quartic: PreparedQuartic, conic: Conic, s_o: SectionPoint
) -> SplittingCertificate:
    """The certificate from s_o with 2 s_o = s_conic^+ (the caller's guarantee)."""
    f_o = s_o.x.as_unipoly()
    g_o = s_o.y.as_unipoly()
    a1, rem = divmod(quartic.curve.cubic_u.eval_u(f_o), 2 * g_o)  # the tangent slope
    if not rem.is_zero:
        raise InternalInconsistencyError("tangent slope at the halving is not polynomial")
    a2 = conic.q - f_o
    a3 = g_o + a1 * a2
    cert = SplittingCertificate(a1, a2, a3)
    if not verify_splitting_certificate(quartic, conic, cert):
        raise InternalInconsistencyError("splitting certificate failed exact verification")
    return cert


def verify_splitting_certificate(
    quartic: PreparedQuartic, conic: Conic, cert: SplittingCertificate
) -> bool:
    """The certificate identity, exactly, coefficient by coefficient in u.
    With A = a1, B = a3 - a1 q and C = a2 - q the right side is
    (A u + B)^2 + (u + C)^2 (u - q), monic cubic in u as f is, so it equals
    f = u^3 + c1 u^2 + c2 u + c3 exactly when

        c1 = A^2 + 2C - q,  c2 = 2AB + C^2 - 2Cq,  c3 = B^2 - C^2 q

    in Q[t].  The degree bounds on a1, a2 and a3 are checked first."""
    if cert.a1.degree > 1 or cert.a2.degree > 2 or cert.a3.degree > 3:
        return False
    curve, q = quartic.curve, conic.q
    a, b, c = cert.a1, cert.a3 - cert.a1 * q, cert.a2 - q
    cq = c * q
    return (curve.c1 == a * a + 2 * c - q and curve.c2 == 2 * a * b + c * c - 2 * cq
            and curve.c3 == b * b - c * cq)


# ---------------------------------------------------------------------------
# combinatorial types, Zariski pairs, dihedral feasibility
# ---------------------------------------------------------------------------


class CombinatorialType(NamedTuple):
    sing_type: tuple[str, ...]
    line_class: str
    contact_multiset: tuple[int, ...]  # local intersection numbers, one per point


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


class ZariskiVerdict(NamedTuple):
    verdict: str
    type1: CombinatorialType
    type2: CombinatorialType
    symbol1: int
    symbol2: int


def zariski_verdict(
    pair1: tuple[PreparedQuartic, SymbolResult], pair2: tuple[PreparedQuartic, SymbolResult]
) -> ZariskiVerdict:
    """The verdict on two (quartic, symbol) pairs: equal combinatorial types
    with opposite symbols make a Zariski pair.  Each combinatorial type comes
    from its symbol's tangency report."""
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


class FeasibilityReport(NamedTuple):
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
