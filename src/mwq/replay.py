"""End-to-end verification scenarios: two reference quartic/conic
configurations with every expected identity checked exactly.

Each scenario pins the quartic, three generating sections, the two derived
sections with their full printed coordinates, the expected heights, fiber
types, symbols, and the Zariski verdict.  `run_example` replays all of it and
reports one pass/fail line per assertion.
"""

from __future__ import annotations

from fractions import Fraction

from .parsing import parse_curve_rhs, parse_section
from .quartic import (
    Conic,
    PreparedQuartic,
    ROUTE_HALVING,
    ROUTE_HALVING_ABSENCE,
    VERDICT_ZARISKI,
    qr_symbol,
    verify_splitting_certificate,
    zariski_verdict,
)
from .report import RunReport
from .surface import add, double, height_pairing, on_curve


EXAMPLES: dict[str, dict] = {
    "5.1": {
        "quartic": "u^3 + (271350 - 98*t)*u^2 + t*(t-5825)*(t-2025)*u + 36*t^2*(t-2025)^2",
        "s_o": "(0, 6*t^2 - 12150*t)",
        "s_t1": "(-32*t, 2*t^2 - 6930*t)",
        "s_t2": "(-20*t, 4*t^2 - 4500*t)",
        "s1": "(1/144*t^2 + 1231/72*t - 5143775/144, "
              "-1/1728*t^3 - 2335/576*t^2 + 13493375/576*t - 29962489375/1728)",
        "s2": "(1/36*t^2 + 435/2*t - 921375/4, "
              "-1/216*t^3 - 1181/24*t^2 - 41625/8*t + 373156875/8)",
        "fibers": {"t": "I2", "t-2025": "I2", "inf": "III"},
        "heights": {
            "s_o": Fraction(1, 2),
            "s_t1": Fraction(1),
            "s_t2": Fraction(1),
            "cross": Fraction(0),
        },
    },
    "5.2": {
        "quartic": "u^3 + (25*t + 9)*u^2 + (144*t^2 + t^3)*u + 16*t^4",
        "s_o": "(0, 4*t^2)",
        "s_t1": "(-16*t, -48*t)",
        "s_t2": "(-15*t, t^2 + 45*t)",
        "s1": "(1/64*t^2 - 41/2*t + 315, -1/512*t^3 - 55/32*t^2 + 2637/8*t - 5670)",
        "s2": "(t^2 + 192*t + 8640, -t^3 - 301*t^2 - 27936*t - 803520)",
        "fibers": {"t": "I4", "inf": "III"},
        "heights": {
            "s_o": Fraction(1, 2),
            "s_t1": Fraction(3, 4),
            "s_t2": Fraction(3, 4),
            "cross": Fraction(1, 4),
        },
    },
}


def run_example(which: str) -> RunReport:
    """Replay one scenario; any failed identity flips the status to mismatch."""
    if which not in EXAMPLES:
        raise ValueError(f"unknown example {which!r}; choose one of {sorted(EXAMPLES)}")
    data = EXAMPLES[which]
    rep = RunReport(command=f"example {which}", inputs={"quartic": data["quartic"]})

    quartic = PreparedQuartic(parse_curve_rhs(data["quartic"]))
    curve = quartic.curve
    s_o = parse_section(data["s_o"])
    s_t1 = parse_section(data["s_t1"])
    s_t2 = parse_section(data["s_t2"])
    s1_printed = parse_section(data["s1"])
    s2_printed = parse_section(data["s2"])

    all_on = True
    for name, sec in (("s_o", s_o), ("s_t1", s_t1), ("s_t2", s_t2)):
        ok = on_curve(curve, sec)
        all_on = all_on and ok
        rep.add(f"on_curve[{name}]", ok, ("on_curve",), ok=ok)
    if not all_on:
        return rep  # everything downstream needs sections on the surface

    ctx = quartic.configuration.context
    fiber_map = {pd.label: pd.kodaira for pd in ctx.places}
    for label, expected in data["fibers"].items():
        got = fiber_map.get(label)
        rep.add(f"fiber[{label}]", got, ("height_context", "kodaira_type_at"), ok=got == expected)

    hh = data["heights"]
    checks = [
        ("height[s_o,s_o]", height_pairing(ctx, s_o, s_o), hh["s_o"]),
        ("height[s_t1,s_t1]", height_pairing(ctx, s_t1, s_t1), hh["s_t1"]),
        ("height[s_t2,s_t2]", height_pairing(ctx, s_t2, s_t2), hh["s_t2"]),
        ("height[s_t1,s_t2]", height_pairing(ctx, s_t1, s_t2), hh["cross"]),
    ]
    for name, got, expected in checks:
        rep.add(name, got, ("height_pairing",), ok=got == expected)

    s1 = double(curve, s_o)
    rep.add("double(s_o) == printed s1", s1, ("double",), ok=s1 == s1_printed)
    s2 = add(curve, s_t1, s_t2)
    rep.add("s_t1 + s_t2 == printed s2", s2, ("add",), ok=s2 == s2_printed)

    conic1 = Conic(s1_printed.x.as_unipoly())
    conic2 = Conic(s2_printed.x.as_unipoly())
    sym1 = qr_symbol(quartic, conic1)
    sym2 = qr_symbol(quartic, conic2)
    for name, tang in (("conic1", sym1.tangency), ("conic2", sym2.tangency)):
        points = tang.contact_point_count()
        rep.add(
            f"even_tangency[{name}]",
            {"even": tang.is_even_tangential, "contact_points": points},
            ("even_tangency", "is_perfect_square"),
            ok=tang.is_even_tangential and points == 4,
        )

    doubled = (
        double(curve, sym1.witness_section) if sym1.witness_section is not None else None
    )
    # the two lifts of the conic differ by negation; either is a valid double
    ok1 = (
        sym1.value == 1
        and sym1.route == ROUTE_HALVING
        and doubled is not None
        and doubled.x == s1_printed.x
        and doubled.y in (s1_printed.y, -s1_printed.y)
        and verify_splitting_certificate(quartic, conic1, sym1.witness_certificate)
    )
    rep.add(
        "symbol[conic1]",
        {"value": sym1.value, "route": sym1.route, "witness": sym1.witness_section},
        ("qr_symbol", "halve", "verify_splitting_certificate"),
        ok=ok1,
    )
    rep.add(
        "symbol[conic2]",
        {"value": sym2.value, "route": sym2.route},
        ("qr_symbol", "halve"),
        ok=sym2.value == -1 and sym2.route == ROUTE_HALVING_ABSENCE,
    )

    verdict = zariski_verdict((quartic, sym1), (quartic, sym2))
    rep.add(
        "zariski_verdict",
        verdict.verdict,
        ("zariski_verdict", "qr_symbol"),
        ok=verdict.verdict == VERDICT_ZARISKI,
    )
    return rep
