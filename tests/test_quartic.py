"""Prepared quartics, even tangency, symbols, certificates, Zariski verdicts."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

import mwq.quartic
from mwq.cli import main
from mwq.parsing import parse_curve_rhs, parse_section, parse_unipoly
from mwq.poly import BiPoly, T, UNIPOLY_ONE, UNIPOLY_ZERO, RatFn, UniPoly
from mwq.replay import EXAMPLES
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
    _certificate_of_half,
    dihedral_feasibility,
    even_tangency,
    genus_from_sing,
    qr_symbol,
    singular_configuration,
    verify_splitting_certificate,
    zariski_verdict,
)
from mwq.report import EXIT_INPUT_ERROR
from mwq.surface import (
    INFINITY_PLACE, InternalInconsistencyError, PlaceData, SectionPoint, halve, negate, on_curve,
)

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


@pytest.mark.parametrize("n_inf, n_finite, row_no", [(5, 2, 48), (4, 3, 49)])
def test_configuration_a2_a1_sb_rows_split_on_the_fiber_at_infinity(
        q51, monkeypatch, n_inf, n_finite, row_no):
    # no quartic of type A2+A1 whose tangent line runs through a singular
    # point is at hand, so the fibers are given: I5 at infinity (the line runs
    # through the A2 point) and I2 at t = 0, or I4 at infinity (through the A1
    # point) and I3
    places = [PlaceData(INFINITY_PLACE, "I", n_inf, 1, q51.curve),
              PlaceData(T, "I", n_finite, 1, q51.curve)]
    monkeypatch.setattr(mwq.quartic, "height_context", lambda curve: SimpleNamespace(places=places))
    cfg = singular_configuration(q51)
    assert (cfg.sing_type, cfg.line_class, cfg.row.row_no) == (("A1", "A2"), "sb", row_no)


def test_configuration_rejects_unprepared_input():
    # a surface whose fiber at infinity is smooth cannot come from a quartic
    # in prepared coordinates (here deg c2 = 4 breaks the profile)
    f = BiPoly([UniPoly.of(1, 0, 1), UniPoly.of(1, 0, 0, 0, 3), UNIPOLY_ZERO, UNIPOLY_ONE])
    quartic = PreparedQuartic(f)
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


# f = (u - q) K + h^2 with K(t, q) = t^2 + 1 and h = (t^2 + 1)(t - 3): the
# conic u = q = t^2 meets the quartic with even contact along h = 0, and
# f_u = K and f_t = -q' K vanish on it over the roots of t^2 + 1.  Since
# deg f(t, q) <= 6, h has degree <= 3, so its rootless places are irreducible
SINGULAR_CONTACT = "(u - t^2)*(u^2 - t^4 + t^2 + 1) + (t^2 + 1)^2*(t - 3)^2"


def test_a_rootless_contact_at_singular_points_is_refused():
    quartic = PreparedQuartic(parse_curve_rhs(SINGULAR_CONTACT))
    rep = even_tangency(quartic, conic_t2())
    assert not rep.is_even_tangential
    assert rep.note == "contact at a singular point of the quartic"
    assert "f_t" in vars(quartic)  # gcd(h, f_u) is nontrivial: f_t is read
    assert rep.contact == contact_by_factoring_g(quartic, conic_t2())
    assert rep.contact == ((UniPoly.of(-3, 1), 2), (UniPoly.of(1, 0, 1), 2), (INFINITY_PLACE, 2))


def test_component_conic_rejected(capsys):
    # a conic that is a component of the "quartic" (u - t^2)(u^2 + 1) never
    # reaches the tangency test: the reducible quartic is refused on entry
    f = BiPoly([-T ** 2, UNIPOLY_ONE]) * BiPoly([UNIPOLY_ONE, UNIPOLY_ZERO, UNIPOLY_ONE])
    assert f == parse_curve_rhs("u^3 - t^2*u^2 + u - t^2")
    with pytest.raises(ValueError, match="not irreducible"):
        PreparedQuartic(f)
    assert main(["tangency", "u^3 - t^2*u^2 + u - t^2", "t^2"]) == EXIT_INPUT_ERROR
    assert "internal error" not in capsys.readouterr().err


def contact_by_factoring_g(quartic, conic):
    """Oracle: the contact read off sympy's irreducible factors of g = f(t, q)
    itself, grouped into places (`places_by_sympy`)."""
    from test_poly import places_by_sympy

    g = quartic.f.eval_u(conic.q)
    contact = sorted(places_by_sympy(g), key=lambda fm: (fm[1], fm[0].degree, fm[0].coeffs))
    return tuple(contact + ([(INFINITY_PLACE, 8 - g.degree)] if g.degree < 8 else []))


def _images(which, sub, a):
    """Example `which` and its two conics under t -> sub, u -> u + a(t)."""
    ex = EXAMPLES[which]
    move = lambda text: text.replace("t", "T").replace("T", f"({sub})")  # noqa: E731
    rhs = ex["quartic"].replace("t", "T").replace("u", f"(u + {a})").replace("T", f"({sub})")
    conics = [Conic(parse_unipoly(f"{move(ex[s][1:].split(', ')[0])} - ({a})"))
              for s in ("s1", "s2")]
    return PreparedQuartic(parse_curve_rhs(rhs)), conics


def test_contact_from_the_square_root_matches_factoring_g(q51, q52, q21, q59):
    """`even_tangency` factors sqrt(g) when g is a square, and g otherwise;
    either way the contact equals the one read off the factors of g."""
    even_nonsquare = PreparedQuartic(parse_curve_rhs("(u - t^2)*(u - 2*t)*(u + t) + 2*(t^2 + 1)^2"))
    pairs = [(q51, Conic(C51_1)), (q51, Conic(C51_2)), (q51, Conic(C51_1 + 1)),
             (q52, Conic(C52_1)), (q52, Conic(C52_2)), (q21, conic_t2()), (q59, conic_t2()),
             (even_nonsquare, conic_t2())]
    for which, sub, a in (("5.1", "2*t - 2", "2*t^2 - t + 1/2"), ("5.2", "3*t - 5", "t^2 - 3*t + 1/2"),
                          ("5.2", "-t/4 + 7", "-5*t")):
        quartic, conics = _images(which, sub, a)
        pairs += [(quartic, c) for c in conics]
    pairs += [(q52, Conic(UniPoly.of(k, -k, 2 + k % 3))) for k in range(-4, 5)]
    notes = set()
    for quartic, conic in pairs:
        report = even_tangency(quartic, conic)
        assert report.contact == contact_by_factoring_g(quartic, conic)
        notes.add(report.note)
    assert len(notes) == 3  # even tangential, an odd contact, and an even non-square


def test_degenerate_conic_rejected():
    with pytest.raises(ValueError):
        Conic(T)


# ---------------------------------------------------------------------------
# lifting and the section-conic correspondence
# ---------------------------------------------------------------------------


def lifts(quartic, conic):
    """The two lifts (q, +-h) of an even tangential conic, h^2 = f(t, q) the
    square root in its tangency report."""
    plus = SectionPoint(RatFn(conic.q), RatFn(even_tangency(quartic, conic).sqrt_witness))
    return plus, negate(quartic.curve, plus)


def test_lift_conic_sections_51(q51):
    plus, minus = lifts(q51, Conic(C51_1))
    curve = q51.curve
    assert on_curve(curve, plus) and on_curve(curve, minus)
    assert plus.x == minus.x and plus.y == -minus.y


def test_lift_then_project_round_trip(q51):
    for q in (C51_1, C51_2):
        for lift in lifts(q51, Conic(q)):
            assert lift.x.as_unipoly() == q and lift.y.is_polynomial()


def test_lift_rejects_non_tangential(q51):
    # a conic without even tangency has no square root to lift, and no symbol
    report = even_tangency(q51, Conic(C51_1 + 1))
    assert not report.is_even_tangential and report.sqrt_witness is None
    with pytest.raises(ValueError, match="not even tangential"):
        qr_symbol(q51, Conic(C51_1 + 1))


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


def test_symbols_read_f_t_only_at_a_common_root_of_h_and_f_u():
    # neither 5.1 conic meets the quartic where f_u vanishes on a contact, so
    # the third gcd, and with it the quartic's f_t, is never taken
    quartic = PreparedQuartic(parse_curve_rhs(Q51_TEXT))
    assert qr_symbol(quartic, Conic(C51_1)).value == 1
    assert qr_symbol(quartic, Conic(C51_2)).value == -1
    assert "f_t" not in vars(quartic)


def test_symbols_52(q52):
    assert qr_symbol(q52, Conic(C52_1)).value == 1
    assert qr_symbol(q52, Conic(C52_2)).value == -1


def test_symbol_sign_stability(q51, q52):
    # the two lifts of a conic halve together or not at all
    for quartic, qpoly in ((q51, C51_1), (q51, C51_2), (q52, C52_1), (q52, C52_2)):
        plus, minus = lifts(quartic, Conic(qpoly))
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
    cert = _certificate_of_half(q51, Conic(C51_1), s_o)
    assert cert.a1.degree <= 1 and cert.a2.degree <= 2 and cert.a3.degree <= 3
    assert verify_splitting_certificate(q51, Conic(C51_1), cert)


def test_certificate_52(q52):
    s_o = parse_section("(0, 4*t^2)")
    cert = _certificate_of_half(q52, Conic(C52_1), s_o)
    assert verify_splitting_certificate(q52, Conic(C52_1), cert)


def test_corrupted_certificate_fails(q51, q52):
    # a constant added to a1, a2 or a3, or a changed top coefficient (of t^k
    # in a_k, within the degree bound): each breaks one of the identities
    for quartic, conic in ((q51, Conic(C51_1)), (q52, Conic(C52_1))):
        cert = qr_symbol(quartic, conic).witness_certificate
        assert verify_splitting_certificate(quartic, conic, cert)
        for k in range(3):
            for bump in (UNIPOLY_ONE, T ** (k + 1)):
                bad = SplittingCertificate(*(a + bump if i == k else a for i, a in enumerate(cert)))
                assert not verify_splitting_certificate(quartic, conic, bad)


@pytest.mark.parametrize("extra", ["u^2", "u", "1"])
def test_certificate_of_another_quartic_fails(q51, extra):
    # f + u^2, f + u and f + 1 each change one coefficient of f in u, and so
    # one of the three identities the certificate is checked against
    cert = qr_symbol(q51, Conic(C51_1)).witness_certificate
    other = PreparedQuartic(parse_curve_rhs(f"{Q51_TEXT} + {extra}"))
    assert not verify_splitting_certificate(other, Conic(C51_1), cert)


def test_certificate_rejects_wrong_section(q51):
    # s_t1 does not halve the lift of the conic: its certificate cannot verify
    wrong = parse_section("(-32*t, 2*t^2 - 6930*t)")
    with pytest.raises(InternalInconsistencyError):
        _certificate_of_half(q51, Conic(C51_1), wrong)


# ---------------------------------------------------------------------------
# combinatorial types and Zariski verdicts
# ---------------------------------------------------------------------------


def symbol_pair(quartic, conic):
    """The (quartic, symbol) pair that `zariski_verdict` reads."""
    return quartic, qr_symbol(quartic, conic)


def test_combinatorial_types_equal_51(q51):
    v = zariski_verdict(symbol_pair(q51, Conic(C51_1)), symbol_pair(q51, Conic(C51_2)))
    assert v.type1 == v.type2
    assert v.type1.contact_multiset == (2, 2, 2, 2)


def test_combinatorial_types_differ_on_contact(q21, q51):
    v = zariski_verdict(symbol_pair(q21, conic_t2()), symbol_pair(q51, Conic(C51_1)))
    assert v.type1.contact_multiset == (4, 4)
    assert v.type1 != v.type2 and v.verdict == VERDICT_NOT_COMPARABLE


def test_zariski_pair_51(q51):
    v = zariski_verdict(symbol_pair(q51, Conic(C51_1)), symbol_pair(q51, Conic(C51_2)))
    assert v.verdict == VERDICT_ZARISKI
    assert (v.symbol1, v.symbol2) == (1, -1)


def test_zariski_pair_52(q52):
    v = zariski_verdict(symbol_pair(q52, Conic(C52_1)), symbol_pair(q52, Conic(C52_2)))
    assert v.verdict == VERDICT_ZARISKI


def test_zariski_identical_inputs_inconclusive(q51):
    v = zariski_verdict(symbol_pair(q51, Conic(C51_1)), symbol_pair(q51, Conic(C51_1)))
    assert v.verdict == VERDICT_INCONCLUSIVE


def test_zariski_not_comparable(q51, q52):
    v = zariski_verdict(symbol_pair(q51, Conic(C51_1)), symbol_pair(q52, Conic(C52_1)))
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
