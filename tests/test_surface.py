"""Group law, fiber classification, components, heights, halving."""

import dataclasses
import random
from fractions import Fraction

import pytest

from mwq.parsing import parse_curve_rhs, parse_section
from mwq.poly import T, UNIPOLY_ONE, UNIPOLY_ZERO, RatFn, UniPoly
from mwq.surface import (
    INFINITY_PLACE,
    NeedsManualComponent,
    PlaceData,
    SectionPoint,
    WeierstrassCurve,
    add,
    component_of,
    corr_cycle_closed_form,
    corr_v,
    double,
    halve,
    height_context,
    height_pairing,
    kodaira_type_at,
    multiple,
    negate,
    on_curve,
    section_O_intersection,
    section_pair_intersection,
    two_torsion_free,
)


def curve_51():
    f = parse_curve_rhs(
        "u^3 + (271350 - 98*t)*u^2 + t*(t-5825)*(t-2025)*u + 36*t^2*(t-2025)^2"
    )
    return WeierstrassCurve(f.coeff_u(2), f.coeff_u(1), f.coeff_u(0))


def curve_52():
    f = parse_curve_rhs("u^3 + (25*t + 9)*u^2 + (144*t^2 + t^3)*u + 16*t^4")
    return WeierstrassCurve(f.coeff_u(2), f.coeff_u(1), f.coeff_u(0))


SECTIONS_51 = {
    "s_o": "(0, 6*t^2 - 12150*t)",
    "s_t1": "(-32*t, 2*t^2 - 6930*t)",
    "s_t2": "(-20*t, 4*t^2 - 4500*t)",
}
SECTIONS_52 = {
    "s_o": "(0, 4*t^2)",
    "s_t1": "(-16*t, -48*t)",
    "s_t2": "(-15*t, t^2 + 45*t)",
}


@pytest.fixture(scope="module")
def e51():
    return curve_51()


@pytest.fixture(scope="module")
def e52():
    return curve_52()


def secs(table):
    return {k: parse_section(v) for k, v in table.items()}


# ---------------------------------------------------------------------------
# curve construction and the group law
# ---------------------------------------------------------------------------


def test_degree_bounds_enforced():
    with pytest.raises(ValueError):
        WeierstrassCurve(T ** 3, UNIPOLY_ZERO, UNIPOLY_ONE)
    with pytest.raises(ValueError):
        WeierstrassCurve(UNIPOLY_ZERO, UNIPOLY_ZERO, T ** 7)


def test_zero_discriminant_rejected():
    with pytest.raises(ValueError):
        WeierstrassCurve(UNIPOLY_ZERO, UNIPOLY_ZERO, UNIPOLY_ZERO)


def test_on_curve(e51):
    pts = secs(SECTIONS_51)
    for p in pts.values():
        assert on_curve(e51, p)
    assert on_curve(e51, SectionPoint.zero())
    assert not on_curve(e51, SectionPoint.of(UNIPOLY_ZERO, UNIPOLY_ONE))


def test_add_zero_is_identity(e51):
    p = parse_section(SECTIONS_51["s_t1"])
    assert add(e51, p, SectionPoint.zero()) == p
    assert add(e51, SectionPoint.zero(), p) == p


def test_add_inverse_is_zero(e51):
    p = parse_section(SECTIONS_51["s_t1"])
    assert add(e51, p, negate(e51, p)).is_zero


def test_double_matches_printed_section(e51):
    s1 = double(e51, parse_section(SECTIONS_51["s_o"]))
    assert s1 == parse_section(
        "(1/144*t^2 + 1231/72*t - 5143775/144, "
        "-1/1728*t^3 - 2335/576*t^2 + 13493375/576*t - 29962489375/1728)"
    )


def test_add_matches_printed_section(e51):
    pts = secs(SECTIONS_51)
    s2 = add(e51, pts["s_t1"], pts["s_t2"])
    assert s2 == parse_section(
        "(1/36*t^2 + 435/2*t - 921375/4, "
        "-1/216*t^3 - 1181/24*t^2 - 41625/8*t + 373156875/8)"
    )


def test_off_curve_rejected(e51):
    with pytest.raises(ValueError):
        double(e51, SectionPoint.of(UNIPOLY_ONE, UNIPOLY_ONE))


def test_group_law_under_100_random_specializations(e51):
    """Specializing commutes with the group law, and the specialized law is
    commutative/associative with O neutral."""
    rng = random.Random(2024)
    pts = secs(SECTIONS_51)
    disc = e51.discriminant()
    names = list(pts)
    done = 0
    while done < 100:
        t0 = Fraction(rng.randint(-50, 50), rng.randint(1, 4))
        if disc(t0) == 0:
            continue
        spec = WeierstrassCurve(
            UniPoly.const(e51.c1(t0)), UniPoly.const(e51.c2(t0)), UniPoly.const(e51.c3(t0))
        )

        def at(p):
            return SectionPoint.of(UniPoly.const(p.x(t0)), UniPoly.const(p.y(t0)))

        a = pts[rng.choice(names)]
        b = pts[rng.choice(names)]
        c = pts[rng.choice(names)]
        sa, sb, sc = at(a), at(b), at(c)
        # specialization of the generic sum
        if a.x != b.x:
            assert at(add(e51, a, b)) == add(spec, sa, sb)
        # commutativity, associativity, neutrality on the fiber
        assert add(spec, sa, sb) == add(spec, sb, sa)
        lhs = add(spec, add(spec, sa, sb), sc)
        rhs = add(spec, sa, add(spec, sb, sc))
        assert lhs == rhs
        assert add(spec, sa, SectionPoint.zero()) == sa
        done += 1


# ---------------------------------------------------------------------------
# discriminants and fiber types
# ---------------------------------------------------------------------------


def test_constant_discriminant():
    c = WeierstrassCurve(UNIPOLY_ZERO, UNIPOLY_ZERO, UNIPOLY_ONE)
    assert c.discriminant() == UniPoly.const(-27)


def test_example_discriminant_roots(e51, e52):
    d = e51.discriminant()
    assert d(Fraction(0)) == 0 and d(Fraction(2025)) == 0
    from mwq.poly import ord_at

    assert ord_at(e52.discriminant(), T) == 4


def test_kodaira_types_example_51(e51):
    assert kodaira_type_at(e51, T).kodaira == "I2"
    assert kodaira_type_at(e51, UniPoly.of(-2025, 1)).kodaira == "I2"
    pd = kodaira_type_at(e51, INFINITY_PLACE)
    assert pd.kodaira == "III" and pd.m_v == 2 and pd.a_v == ((-2,),)


def test_kodaira_types_example_52(e52):
    pd = kodaira_type_at(e52, T)
    assert pd.kodaira == "I4" and pd.m_v == 4 and pd.euler == 4
    assert kodaira_type_at(e52, INFINITY_PLACE).kodaira == "III"


def test_kodaira_rejects_nonsingular_place(e51):
    with pytest.raises(ValueError):
        kodaira_type_at(e51, UniPoly.of(-1, 1))  # t = 1 is a good fiber


def test_kodaira_synthetic_additive_menagerie():
    cases = [
        (WeierstrassCurve(UNIPOLY_ZERO, UNIPOLY_ZERO, T), "II", 1, 2),
        (WeierstrassCurve(UNIPOLY_ZERO, T, UNIPOLY_ZERO), "III", 2, 3),
        (WeierstrassCurve(UNIPOLY_ZERO, UNIPOLY_ZERO, T ** 2), "IV", 3, 4),
        (WeierstrassCurve(UNIPOLY_ZERO, T ** 2, UNIPOLY_ZERO), "I0*", 5, 6),
        (WeierstrassCurve(T, UNIPOLY_ZERO, T ** 4), "I1*", 6, 7),
        (WeierstrassCurve(UNIPOLY_ZERO, UNIPOLY_ZERO, T ** 4), "IV*", 7, 8),
        (WeierstrassCurve(UNIPOLY_ZERO, T ** 3, UNIPOLY_ZERO), "III*", 8, 9),
        (WeierstrassCurve(UNIPOLY_ZERO, UNIPOLY_ZERO, T ** 5), "II*", 9, 10),
    ]
    for curve, expected, m_v, euler in cases:
        pd = kodaira_type_at(curve, T)
        assert (pd.kodaira, pd.m_v, pd.euler) == (expected, m_v, euler)


def test_euler_sum_is_twelve(e51, e52):
    for curve in (e51, e52):
        ctx = height_context(curve)
        assert sum(pd.degree * pd.euler for pd in ctx.places) == 12
        assert ctx.chi == 1


# ---------------------------------------------------------------------------
# components and local corrections
# ---------------------------------------------------------------------------


def test_zero_section_on_identity_component(e51):
    pd = kodaira_type_at(e51, T)
    assert component_of(pd, SectionPoint.zero()) == 0


def test_component_misses_node(e51):
    # s_t1 at t = 2025: x = -64800 is far from the node at u = 0
    pd = kodaira_type_at(e51, UniPoly.of(-2025, 1))
    p = parse_section(SECTIONS_51["s_t1"])
    assert component_of(pd, p) == 0


def test_components_of_s_o_example_51(e51):
    # forced by <s_o, s_o> = 1/2 = 2 - 3/2: s_o passes through all three
    # reducible fibers away from the identity component
    pts = secs(SECTIONS_51)
    total = Fraction(0)
    for place in (T, UniPoly.of(-2025, 1), INFINITY_PLACE):
        pd = kodaira_type_at(e51, place)
        idx = component_of(pd, pts["s_o"])
        assert idx == 1
        total += corr_v(pd, pts["s_o"], pts["s_o"])
    assert total == Fraction(3, 2)


def test_cycle_components_example_52(e52):
    # the I4 fiber separates the two generators onto opposite components
    pd = kodaira_type_at(e52, T)
    pts = secs(SECTIONS_52)
    i1 = component_of(pd, pts["s_t1"])
    i2 = component_of(pd, pts["s_t2"])
    assert {i1, i2} == {1, 3}
    assert component_of(pd, pts["s_o"]) == 2
    s2 = add(e52, pts["s_t1"], pts["s_t2"])
    assert component_of(pd, s2) == 0  # indices add on the cycle


def test_corr_in_closed_form_matches_matrix():
    for n in range(2, 10):
        gram = [[0] * (n - 1) for _ in range(n - 1)]
        for i in range(n - 1):
            gram[i][i] = -2
            if i + 1 < n - 1:
                gram[i][i + 1] = gram[i + 1][i] = 1
        pd = PlaceData(
            place=T, kodaira=f"I{n}", m_v=n, a_v=tuple(map(tuple, gram)),
            degree=1, euler=n, v_disc=n, chart_curve=None, chart_place=T,
        )
        inv = pd.neg_a_inv()
        for i in range(1, n):
            for j in range(1, n):
                assert inv[i - 1][j - 1] == corr_cycle_closed_form(n, i, j)


def test_corr_type_iii_and_iv():
    pd3 = PlaceData(place=T, kodaira="III", m_v=2, a_v=((-2,),), degree=1,
                    euler=3, v_disc=3, chart_curve=None, chart_place=T)
    assert pd3.neg_a_inv() == ((Fraction(1, 2),),)
    pd4 = PlaceData(place=T, kodaira="IV", m_v=3, a_v=((-2, 1), (1, -2)), degree=1,
                    euler=4, v_disc=4, chart_curve=None, chart_place=T)
    inv = pd4.neg_a_inv()
    assert inv[0][0] == inv[1][1] == Fraction(2, 3)
    assert inv[0][1] == Fraction(1, 3)


def test_manual_component_assignment_used():
    pd = PlaceData(place=T, kodaira="IV", m_v=3, a_v=((-2, 1), (1, -2)), degree=1,
                   euler=4, v_disc=4, chart_curve=None, chart_place=T)
    p = SectionPoint.of(T, T)
    assert corr_v(pd, p, p, {(T, p): 2}) == Fraction(2, 3)


def test_place_data_is_immutable(e51):
    pd = kodaira_type_at(e51, T)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pd.kodaira = "I3"


def test_manual_components_do_not_leak_into_the_context(e51):
    # one context, the same pair: the override applies to its own call only
    ctx = height_context(e51)
    pts = secs(SECTIONS_51)
    p, q = pts["s_t1"], pts["s_t2"]
    place = UniPoly.of(-2025, 1)
    manual = {(place, p): 1, (place, q): 1}
    assert height_pairing(ctx, p, q, manual) == Fraction(-1, 2)
    assert height_pairing(ctx, p, q) == 0


def test_unautomated_component_raises():
    curve = WeierstrassCurve(UNIPOLY_ZERO, UNIPOLY_ZERO, T ** 2)  # IV at t = 0
    pd = kodaira_type_at(curve, T)
    probe = SectionPoint.of(T, T)  # reduces to the cusp; not automated for IV
    with pytest.raises(NeedsManualComponent):
        component_of(pd, probe)


# ---------------------------------------------------------------------------
# intersection numbers
# ---------------------------------------------------------------------------


def test_sO_zero_for_polynomial_sections(e51):
    for p in secs(SECTIONS_51).values():
        assert section_O_intersection(e51, p) == 0


def test_sO_rejects_zero_section(e51):
    with pytest.raises(ValueError):
        section_O_intersection(e51, SectionPoint.zero())


def test_sO_counts_denominator_places(e51):
    from mwq.poly import ord_at

    pts = secs(SECTIONS_51)
    s = double(e51, pts["s_t1"])  # y(s_t1) vanishes at t = 3465: 2P meets O there
    assert ord_at(s.x.den, UniPoly.of(-3465, 1)) == 2
    assert section_O_intersection(e51, s) == 1


def test_sO_shifted_denominator():
    # the same surface with t -> t + 3464 puts the pole denominator at (t-1)^2
    from mwq.poly import ord_at

    base = curve_51()

    def sh(p):
        return p.shift(3464)

    curve = WeierstrassCurve(sh(base.c1), sh(base.c2), sh(base.c3))
    pts = secs(SECTIONS_51)
    s = double(base, pts["s_t1"])
    moved = SectionPoint(
        RatFn(sh(s.x.num), sh(s.x.den)), RatFn(sh(s.y.num), sh(s.y.den))
    )
    assert on_curve(curve, moved)
    assert ord_at(moved.x.den, UniPoly.of(-1, 1)) == 2
    assert section_O_intersection(curve, moved) == 1


def test_pair_intersection_zero_when_x_differs_by_constant(e51):
    pts = secs(SECTIONS_51)
    # x-coordinates -32t and -20t meet only over t = 0 (the node); the
    # resolved cycle there keeps the sections apart
    assert section_pair_intersection(e51, pts["s_t1"], pts["s_t2"]) == 0


def test_pair_intersection_consistent_with_heights(e52):
    pts = secs(SECTIONS_52)
    assert section_pair_intersection(e52, pts["s_t1"], pts["s_t2"]) == 0


def test_pair_intersection_positive_case(e51):
    pts = secs(SECTIONS_51)
    p = pts["s_t1"]
    q = negate(e51, pts["s_t1"])
    # P and -P meet exactly where y vanishes; cross-check via the height
    ctx = height_context(e51)
    h_pp = height_pairing(ctx, p, p)
    h_pq = height_pairing(ctx, p, q)
    assert h_pq == -h_pp
    got = section_pair_intersection(e51, p, q)
    assert got >= 0


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------


def test_heights_example_51(e51):
    ctx = height_context(e51)
    pts = secs(SECTIONS_51)
    assert height_pairing(ctx, pts["s_o"], pts["s_o"]) == Fraction(1, 2)
    assert height_pairing(ctx, pts["s_t1"], pts["s_t1"]) == 1
    assert height_pairing(ctx, pts["s_t2"], pts["s_t2"]) == 1
    assert height_pairing(ctx, pts["s_t1"], pts["s_t2"]) == 0


def test_heights_example_52(e52):
    ctx = height_context(e52)
    pts = secs(SECTIONS_52)
    assert height_pairing(ctx, pts["s_o"], pts["s_o"]) == Fraction(1, 2)
    assert height_pairing(ctx, pts["s_t1"], pts["s_t1"]) == Fraction(3, 4)
    assert height_pairing(ctx, pts["s_t2"], pts["s_t2"]) == Fraction(3, 4)
    assert height_pairing(ctx, pts["s_t1"], pts["s_t2"]) == Fraction(1, 4)


def test_height_with_zero_section_is_zero(e51):
    ctx = height_context(e51)
    p = parse_section(SECTIONS_51["s_o"])
    assert height_pairing(ctx, p, SectionPoint.zero()) == 0
    assert height_pairing(ctx, SectionPoint.zero(), SectionPoint.zero()) == 0


def test_height_symmetry_and_bilinearity(e51, e52):
    for curve, table in ((e51, SECTIONS_51), (e52, SECTIONS_52)):
        ctx = height_context(curve)
        pts = secs(table)
        p, q, r = pts["s_o"], pts["s_t1"], pts["s_t2"]
        assert height_pairing(ctx, p, q) == height_pairing(ctx, q, p)
        h_pr = height_pairing(ctx, p, r)
        h_qr = height_pairing(ctx, q, r)
        for a in range(-2, 3):
            for b in range(-2, 3):
                combo = add(curve, multiple(curve, a, p), multiple(curve, b, q))
                got = height_pairing(ctx, combo, r)
                assert got == a * h_pr + b * h_qr, (a, b)


def test_height_nonnegative_on_sections(e51):
    ctx = height_context(e51)
    pts = secs(SECTIONS_51)
    for a in range(-2, 3):
        for b in range(-2, 3):
            combo = add(e51, multiple(e51, a, pts["s_o"]), multiple(e51, b, pts["s_t1"]))
            if combo.is_zero:
                continue
            assert height_pairing(ctx, combo, combo) > 0


# ---------------------------------------------------------------------------
# halving and 2-torsion
# ---------------------------------------------------------------------------


def test_halve_example_51(e51):
    pts = secs(SECTIONS_51)
    s1 = double(e51, pts["s_o"])
    got = halve(e51, s1)
    assert got == pts["s_o"]  # halving is unique: there is no 2-torsion
    s2 = add(e51, pts["s_t1"], pts["s_t2"])
    assert halve(e51, s2) is None


def test_halve_example_52(e52):
    pts = secs(SECTIONS_52)
    s1 = double(e52, pts["s_o"])
    got = halve(e52, s1)
    assert got == pts["s_o"]
    s2 = add(e52, pts["s_t1"], pts["s_t2"])
    assert halve(e52, s2) is None


def test_double_halve_round_trip(e51):
    pts = secs(SECTIONS_51)
    for name in ("s_o", "s_t1", "s_t2"):
        doubled = double(e51, pts[name])
        if doubled.x.is_polynomial() and doubled.x.num.degree <= 2 \
                and doubled.y.is_polynomial() and doubled.y.num.degree <= 3:
            back = halve(e51, doubled)
            assert back is not None
            assert double(e51, back) == doubled


def test_halve_preconditions(e51):
    with pytest.raises(ValueError):
        halve(e51, SectionPoint.zero())
    pts = secs(SECTIONS_51)
    s4 = multiple(e51, 4, pts["s_o"])  # rational-function coordinates
    if not s4.x.is_polynomial():
        with pytest.raises(ValueError):
            halve(e51, s4)


def test_two_torsion_free(e51, e52):
    assert two_torsion_free(e51)
    assert two_torsion_free(e52)


def test_two_torsion_detected():
    # y^2 = u^3 + u = u (u^2 + 1): visible 2-torsion at u = 0
    curve = WeierstrassCurve(UNIPOLY_ZERO, UNIPOLY_ONE, UNIPOLY_ZERO)
    assert not two_torsion_free(curve)
    # a root of degree 1 in t as well: y^2 = (u - t)(u^2 + u + 1 + t)
    c1 = UniPoly.of(1, -1)
    c2 = UNIPOLY_ONE
    c3 = UniPoly.of(0, -1, -1)
    curve2 = WeierstrassCurve(c1, c2, c3)
    assert not two_torsion_free(curve2)
