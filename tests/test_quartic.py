"""Prepared quartics, even tangency, symbols, certificates, Zariski verdicts."""

from fractions import Fraction

import pytest

from mwq.parsing import parse_curve_rhs, parse_section
from mwq.poly import BiPoly, T, UNIPOLY_ONE, UNIPOLY_ZERO, RatFn, UniPoly
from mwq.quartic import (
    Conic,
    FEASIBLE_ALL_N,
    FEASIBLE_UNDETERMINED,
    INFEASIBLE_ODD_PRIMES,
    PreparedQuartic,
    ROUTE_GENUS0,
    ROUTE_GENUS_GE2,
    ROUTE_HALVING,
    ROUTE_HALVING_ABSENCE,
    SplittingCertificate,
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT_COMPARABLE,
    VERDICT_ZARISKI,
    combinatorial_type,
    conic_from_section,
    dihedral_feasibility,
    even_tangency,
    genus_from_sing,
    lift_conic,
    qr_symbol,
    singular_configuration,
    splitting_certificate,
    verify_splitting_certificate,
    zariski_pair_check,
)
from mwq.surface import INFINITY_PLACE, halve, negate, on_curve

Q51_TEXT = "u^3 + (271350 - 98*t)*u^2 + t*(t-5825)*(t-2025)*u + 36*t^2*(t-2025)^2"
Q52_TEXT = "u^3 + (25*t + 9)*u^2 + (144*t^2 + t^3)*u + 16*t^4"
C51_1 = UniPoly.of(Fraction(-5143775, 144), Fraction(1231, 72), Fraction(1, 144))
C51_2 = UniPoly.of(Fraction(-921375, 4), Fraction(435, 2), Fraction(1, 36))
C52_1 = UniPoly.of(315, Fraction(-41, 2), Fraction(1, 64))
C52_2 = UniPoly.of(8640, 192, 1)

# genus-0 fixture: (u - t^2)(u + 2t + 3)^2 + (1/4)(t+2)^4 has A3 + A1 and the
# conic u = t^2 touches it at two points (multiplicities 4 and 4)
Q21_TEXT = "(u - t^2)*(u + 2*t + 3)^2 + 1/4*(t + 2)^4"
# genus-3 fixture: a smooth quartic with the same conic
Q59_TEXT = "(u - t^2)*(u - 2*t)*(u + t) + (t^2 + 1)^2"


@pytest.fixture(scope="module")
def q51():
    return PreparedQuartic(parse_curve_rhs(Q51_TEXT))


@pytest.fixture(scope="module")
def q52():
    return PreparedQuartic(parse_curve_rhs(Q52_TEXT))


@pytest.fixture(scope="module")
def q21():
    return PreparedQuartic(parse_curve_rhs(Q21_TEXT))


@pytest.fixture(scope="module")
def q59():
    return PreparedQuartic(parse_curve_rhs(Q59_TEXT))


def conic_t2():
    return Conic(UniPoly.of(0, 0, 1))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_surface_of_matches_displayed_models(q51, q52):
    assert q51.curve.c1 == UniPoly.of(271350, -98)
    assert q52.curve.c3 == UniPoly.of(0, 0, 0, 0, 16)


def test_degree_overflow_rejected():
    with pytest.raises(ValueError):
        PreparedQuartic(BiPoly([T ** 7, UNIPOLY_ZERO, UNIPOLY_ZERO, UNIPOLY_ONE]))


def test_nonmonic_rejected():
    with pytest.raises(ValueError):
        PreparedQuartic(BiPoly([UNIPOLY_ONE, UNIPOLY_ZERO, UNIPOLY_ZERO, UniPoly.const(2)]))


def test_reducible_rejected():
    # (u - t)(u^2 + u + 1 + t) factors over Q(t)
    f = BiPoly([UniPoly.of(0, -1, -1), UNIPOLY_ONE, UniPoly.of(1, -1), UNIPOLY_ONE])
    with pytest.raises(ValueError):
        PreparedQuartic(f)


# ---------------------------------------------------------------------------
# singular configuration and genus
# ---------------------------------------------------------------------------


def test_configuration_51(q51):
    cfg = singular_configuration(q51)
    assert cfg.sing_type == ("A1", "A1")
    assert cfg.line_class == "s"
    assert cfg.row.row_no == 50


def test_configuration_52(q52):
    cfg = singular_configuration(q52)
    assert cfg.sing_type == ("A3",)
    assert cfg.line_class == "s"
    assert cfg.row.row_no == 40


def test_configuration_rows_carry_the_conic_counts(q51, q52):
    # the matched rows tie the geometry to the lattice-level counts
    from mwq.lattice import count_etc, count_qretc

    row50 = singular_configuration(q51).row
    assert (count_etc(row50.mw), count_qretc(row50.mw)) == (13, 1)
    row40 = singular_configuration(q52).row
    assert (count_etc(row40.mw), count_qretc(row40.mw)) == (7, 1)


def test_configuration_smooth(q59):
    cfg = singular_configuration(q59)
    assert cfg.sing_type == ()
    assert cfg.line_class == "s"
    assert cfg.row.row_no == 59


def test_configuration_genus0_fixture(q21):
    cfg = singular_configuration(q21)
    assert cfg.sing_type == ("A1", "A3")
    assert cfg.row.row_no == 21


def test_configuration_rejects_unprepared_input():
    # a surface whose fiber at infinity is smooth cannot come from a quartic
    # in prepared coordinates (here deg c2 = 4 breaks the profile)
    f = BiPoly([UniPoly.of(1, 0, 1), UniPoly.of(1, 0, 0, 0, 3), UNIPOLY_ZERO, UNIPOLY_ONE])
    quartic = PreparedQuartic(f, check_irreducible=False)
    with pytest.raises(ValueError):
        singular_configuration(quartic)


def test_genus_values():
    assert genus_from_sing(()) == 3
    assert genus_from_sing(("A1", "A1")) == 1
    assert genus_from_sing(("A6",)) == 0
    assert genus_from_sing(("A2",)) == 2
    assert genus_from_sing(("D4",)) == 0
    assert genus_from_sing(("D5",)) == 0
    assert genus_from_sing(("E6",)) == 0
    assert genus_from_sing(("A2", "A2", "A2")) == 0


# ---------------------------------------------------------------------------
# even tangency
# ---------------------------------------------------------------------------


def test_tangency_51_both_conics(q51):
    for q in (C51_1, C51_2):
        rep = even_tangency(q51, Conic(q))
        assert rep.is_even_tangential
        assert rep.contact_point_count() == 4
        assert sum((1 if p == INFINITY_PLACE else p.degree) * m for p, m in rep.contact) == 8
        assert all(m % 2 == 0 for _, m in rep.contact)


def test_tangency_52_both_conics(q52):
    for q in (C52_1, C52_2):
        rep = even_tangency(q52, Conic(q))
        assert rep.is_even_tangential
        assert rep.contact_point_count() == 4


def test_perturbed_conic_not_tangential(q51):
    rep = even_tangency(q51, Conic(C51_1 + 1))
    assert not rep.is_even_tangential
    assert rep.sqrt_witness is None


def test_conic_through_singular_point_rejected(q51):
    # the quartic has a node at (0, 0); u = t*(t-5825)-ish conics hit u(0)=0...
    # build a conic through the node with even contact there: u = t^2 + c*t
    # fails anyway because the restriction is not a square; use the report note
    rep = even_tangency(q51, Conic(UniPoly.of(0, 1, 1)))
    assert not rep.is_even_tangential


def test_component_conic_rejected():
    # against a reducible "quartic" the conic branch itself must be refused
    q = UniPoly.of(0, 0, 1)
    f = BiPoly([-q, UNIPOLY_ONE]) * BiPoly([UNIPOLY_ONE, UNIPOLY_ZERO, UNIPOLY_ONE])
    quartic = PreparedQuartic(f, check_irreducible=False)
    with pytest.raises(ValueError):
        even_tangency(quartic, Conic(q))


def test_degenerate_conic_rejected():
    with pytest.raises(ValueError):
        Conic(T)


# ---------------------------------------------------------------------------
# lifting and the section-conic correspondence
# ---------------------------------------------------------------------------


def test_lift_conic_sections_51(q51):
    plus, minus = lift_conic(q51, Conic(C51_1))
    curve = q51.curve
    assert on_curve(curve, plus) and on_curve(curve, minus)
    assert plus.x == minus.x and plus.y == -minus.y
    assert negate(curve, plus) == minus


def test_lift_then_project_round_trip(q51):
    for q in (C51_1, C51_2):
        plus, minus = lift_conic(q51, Conic(q))
        assert conic_from_section(plus).q == q
        assert conic_from_section(minus).q == q


def test_conic_from_section_rejects_rational_x(q51):
    bad = SectionPoint_of_rational()
    with pytest.raises(ValueError):
        conic_from_section(bad)


def SectionPoint_of_rational():
    from mwq.surface import SectionPoint

    return SectionPoint(RatFn(UNIPOLY_ONE, T), RatFn(UNIPOLY_ONE))


def test_lift_rejects_non_tangential(q51):
    with pytest.raises(ValueError):
        lift_conic(q51, Conic(C51_1 + 1))


# ---------------------------------------------------------------------------
# the symbol
# ---------------------------------------------------------------------------


def test_symbols_51(q51):
    sym1 = qr_symbol(q51, Conic(C51_1))
    assert sym1.value == 1 and sym1.route == ROUTE_HALVING
    assert sym1.witness_section is not None
    assert verify_splitting_certificate(q51, Conic(C51_1), sym1.witness_certificate)
    sym2 = qr_symbol(q51, Conic(C51_2))
    assert sym2.value == -1 and sym2.route == ROUTE_HALVING_ABSENCE


def test_symbols_52(q52):
    assert qr_symbol(q52, Conic(C52_1)).value == 1
    assert qr_symbol(q52, Conic(C52_2)).value == -1


def test_symbol_sign_stability(q51, q52):
    # the two lifts of a conic halve together or not at all
    for quartic, qpoly in ((q51, C51_1), (q51, C51_2), (q52, C52_1), (q52, C52_2)):
        plus, minus = lift_conic(quartic, Conic(qpoly))
        got_plus = halve(quartic.curve, plus)
        got_minus = halve(quartic.curve, minus)
        assert (got_plus is None) == (got_minus is None)


def test_symbol_genus0_route(q21):
    sym = qr_symbol(q21, conic_t2())
    assert sym.value == 1 and sym.route == ROUTE_GENUS0


def test_symbol_genus_ge2_route(q59):
    sym = qr_symbol(q59, conic_t2())
    assert sym.value == -1 and sym.route == ROUTE_GENUS_GE2


def test_symbol_requires_even_tangency(q51):
    with pytest.raises(ValueError):
        qr_symbol(q51, Conic(C51_1 + 1))


# ---------------------------------------------------------------------------
# splitting certificates
# ---------------------------------------------------------------------------


def test_certificate_51(q51):
    s_o = parse_section("(0, 6*t^2 - 12150*t)")
    cert = splitting_certificate(q51, Conic(C51_1), s_o)
    assert cert.a1.degree <= 1 and cert.a2.degree <= 2 and cert.a3.degree <= 3
    assert verify_splitting_certificate(q51, Conic(C51_1), cert)


def test_certificate_52(q52):
    s_o = parse_section("(0, 4*t^2)")
    cert = splitting_certificate(q52, Conic(C52_1), s_o)
    assert verify_splitting_certificate(q52, Conic(C52_1), cert)


def test_corrupted_certificate_fails(q51):
    s_o = parse_section("(0, 6*t^2 - 12150*t)")
    cert = splitting_certificate(q51, Conic(C51_1), s_o)
    bad = SplittingCertificate(cert.a1, cert.a2, cert.a3 + 1)
    assert not verify_splitting_certificate(q51, Conic(C51_1), bad)


def test_certificate_rejects_wrong_section(q51):
    wrong = parse_section("(-32*t, 2*t^2 - 6930*t)")
    with pytest.raises(ValueError):
        splitting_certificate(q51, Conic(C51_1), wrong)


# ---------------------------------------------------------------------------
# combinatorial types and Zariski verdicts
# ---------------------------------------------------------------------------


def test_combinatorial_types_equal_51(q51):
    t1 = combinatorial_type(q51, Conic(C51_1))
    t2 = combinatorial_type(q51, Conic(C51_2))
    assert t1 == t2
    assert t1.contact_multiset == (2, 2, 2, 2)


def test_combinatorial_types_differ_on_contact(q21, q51):
    t21 = combinatorial_type(q21, conic_t2())
    assert t21.contact_multiset == (4, 4)
    t51 = combinatorial_type(q51, Conic(C51_1))
    assert t21 != t51


def test_zariski_pair_51(q51):
    v = zariski_pair_check((q51, Conic(C51_1)), (q51, Conic(C51_2)))
    assert v.verdict == VERDICT_ZARISKI
    assert (v.symbol1, v.symbol2) == (1, -1)


def test_zariski_pair_52(q52):
    v = zariski_pair_check((q52, Conic(C52_1)), (q52, Conic(C52_2)))
    assert v.verdict == VERDICT_ZARISKI


def test_zariski_identical_inputs_inconclusive(q51):
    v = zariski_pair_check((q51, Conic(C51_1)), (q51, Conic(C51_1)))
    assert v.verdict == VERDICT_INCONCLUSIVE


def test_zariski_not_comparable(q51, q52):
    v = zariski_pair_check((q51, Conic(C51_1)), (q52, Conic(C52_1)))
    assert v.verdict == VERDICT_NOT_COMPARABLE


# ---------------------------------------------------------------------------
# dihedral feasibility
# ---------------------------------------------------------------------------


def test_feasibility_51(q51):
    assert dihedral_feasibility(q51, Conic(C51_1)).verdict == FEASIBLE_ALL_N
    assert dihedral_feasibility(q51, Conic(C51_2)).verdict == INFEASIBLE_ODD_PRIMES


def test_feasibility_52(q52):
    assert dihedral_feasibility(q52, Conic(C52_1)).verdict == FEASIBLE_ALL_N


def test_feasibility_undetermined_outside_the_two_types(q21):
    rep = dihedral_feasibility(q21, conic_t2())
    assert rep.symbol.value == 1
    assert rep.verdict == FEASIBLE_UNDETERMINED
