"""Round-trip parsing, report determinism, and the command-line surface."""

import dataclasses
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mwq.mwtable as mwtable
from mwq.cli import main
from mwq.parsing import (
    InputFormatError,
    ParseError,
    bipoly_text,
    parse_bipoly,
    parse_conic_rhs,
    parse_curve_rhs,
    parse_ratfn,
    parse_section,
    parse_unipoly,
    poly_text,
    ratfn_text,
    section_text,
)
from mwq.poly import RatFn, UniPoly
from mwq.replay import EXAMPLES, run_example
from mwq.report import EXIT_INPUT_ERROR, EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK

Q51 = "u^3 + (271350 - 98*t)*u^2 + t*(t-5825)*(t-2025)*u + 36*t^2*(t-2025)^2"
C51_1 = "u = 1/144*t^2 + 1231/72*t - 5143775/144"
C51_2 = "u = 1/36*t^2 + 435/2*t - 921375/4"
Q52 = "u^3 + (25*t + 9)*u^2 + (144*t^2 + t^3)*u + 16*t^4"
C52_1 = "u = 1/64*t^2 - 41/2*t + 315"
C52_2 = "u = t^2 + 192*t + 8640"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_example_quartic():
    f = parse_curve_rhs(Q51)
    assert f.degree_u == 3
    assert f.coeff_u(2) == UniPoly.of(271350, -98)


def test_parse_conic_form():
    q = parse_conic_rhs("u = 1/64*t^2 - 41/2*t + 315")
    assert q == UniPoly.of(315, Fraction(-41, 2), Fraction(1, 64))


def test_conic_degree_bound_is_semantic_error():
    from mwq.quartic import Conic

    q = parse_conic_rhs("u = t^3")
    with pytest.raises(ValueError):
        Conic(q)


def test_parse_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_unipoly("t^2 + $")
    assert "position" in str(err.value)


def test_parse_rejects_unknown_names():
    with pytest.raises(ParseError):
        parse_unipoly("t + x")


def test_parse_division_by_t_rejected_for_polynomials():
    with pytest.raises(InputFormatError):
        parse_bipoly("1/t + u")


def test_parse_ratfn_allows_division():
    r = parse_ratfn("(t^2 - 1)/(t - 1)")
    assert r == RatFn(UniPoly.of(1, 1))


def test_parse_section_forms():
    assert parse_section("O").is_zero
    assert parse_section("zero").is_zero
    p = parse_section("(1/t, 0)")
    assert p.x == RatFn(UniPoly.const(1), UniPoly.of(0, 1))
    with pytest.raises(ValueError):
        parse_section("(1, 2, 3)")
    with pytest.raises(InputFormatError):
        parse_section("1 + t")


def test_round_trip_polynomials():
    rng = random.Random(99)
    for _ in range(60):
        p = UniPoly(
            [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(rng.randint(0, 7))]
        )
        assert parse_unipoly(poly_text(p)) == p


def test_round_trip_bipoly_and_sections():
    f = parse_curve_rhs(Q51)
    assert parse_bipoly(bipoly_text(f)) == f
    for text in EXAMPLES["5.1"].values():
        if isinstance(text, str) and text.startswith("("):
            s = parse_section(text)
            assert parse_section(section_text(s)) == s
    r = RatFn(UniPoly.of(1, 2), UniPoly.of(0, 0, 1))
    assert parse_ratfn(ratfn_text(r)) == r


# ---------------------------------------------------------------------------
# CLI commands and exit codes
# ---------------------------------------------------------------------------


def test_table_verify_ok(capsys):
    assert main(["table", "--verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rows_matched = 60" in out


def test_table_rows_range(capsys):
    assert main(["table", "--verify", "--rows", "37..52"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rows_matched = 16" in out


def test_table_mismatch_detected_with_altered_fixture(capsys, monkeypatch):
    rows = list(mwtable.builtin_table())
    rows[39] = dataclasses.replace(rows[39], etc_expected=99)
    monkeypatch.setattr(mwtable, "builtin_table", lambda: tuple(rows))
    assert main(["table", "--verify"]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "row[40]" in out and "MISMATCH" in out


def test_example_commands(capsys):
    assert main(["example", "5.1"]) == EXIT_OK
    assert main(["example", "5.2"]) == EXIT_OK
    capsys.readouterr()


def test_example_with_perturbed_fixture_mismatches():
    data = dict(EXAMPLES["5.1"])
    data["s_t1"] = "(-32*t, 2*t^2 - 6930*t + 1)"
    report = run_example("5.1", data=data)
    assert report.status == "mismatch"
    bad = [item for item in report.results if item.ok is False]
    assert bad and bad[0].name == "on_curve[s_t1]"


def test_symbol_command(capsys):
    assert main(["symbol", Q51, C51_1]) == EXIT_OK
    out = capsys.readouterr().out
    assert "symbol = 1" in out
    assert main(["symbol", Q51, C51_2]) == EXIT_OK
    out = capsys.readouterr().out
    assert "symbol = -1" in out


def test_tangency_command(capsys):
    assert main(["tangency", Q51, C51_1]) == EXIT_OK
    out = capsys.readouterr().out
    assert "is_even_tangential = True" in out


def test_zariski_command(capsys):
    assert main(["zariski", Q51, C51_1, C51_2]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict = ZariskiPair" in out


def test_feasibility_command(capsys):
    assert main(["feasibility", Q51, C51_2]) == EXIT_OK
    out = capsys.readouterr().out
    assert "infeasible-odd-primes>=5" in out


def test_curve_commands(capsys):
    assert main(["curve", "check", Q51, "(0, 6*t^2 - 12150*t)"]) == EXIT_OK
    assert "on_curve = True" in capsys.readouterr().out
    assert main(["curve", "double", Q51, "(0, 6*t^2 - 12150*t)"]) == EXIT_OK
    assert "5143775/144" in capsys.readouterr().out
    assert main(["curve", "fibers", Q51]) == EXIT_OK
    out = capsys.readouterr().out
    assert "fiber[inf]" in out and "euler_sum = 12" in out
    assert main(["curve", "halve", Q51,
                 "(1/36*t^2 + 435/2*t - 921375/4, "
                 "-1/216*t^3 - 1181/24*t^2 - 41625/8*t + 373156875/8)"]) == EXIT_OK
    assert "divisible_by_2 = False" in capsys.readouterr().out


def test_curve_add_negate_commands(capsys):
    assert main(["curve", "negate", Q51, "(0, 6*t^2 - 12150*t)"]) == EXIT_OK
    assert "-6*t^2 + 12150*t" in capsys.readouterr().out
    assert main(["curve", "add", Q51, "(-32*t, 2*t^2 - 6930*t)",
                 "(-20*t, 4*t^2 - 4500*t)"]) == EXIT_OK
    assert "921375/4" in capsys.readouterr().out
    assert main(["curve", "add", Q51, "(-32*t, 2*t^2 - 6930*t)"]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_nonmonic_curve_rejected(capsys):
    assert main(["curve", "fibers", "2*u^3 + t*u + 1"]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_curve_height_command(capsys):
    assert main(["curve", "height", Q51, "(-32*t, 2*t^2 - 6930*t)",
                 "(-20*t, 4*t^2 - 4500*t)"]) == EXIT_OK
    assert "height = 0" in capsys.readouterr().out


def test_curve_height_with_manual_component(capsys):
    # overriding components changes the local correction and hence the value
    assert main(["curve", "height", Q51, "(-32*t, 2*t^2 - 6930*t)",
                 "(-20*t, 4*t^2 - 4500*t)", "--component", "t-2025=1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "height = -1/2" in out


def test_lattice_commands(capsys):
    assert main(["lattice", "roots", "A2"]) == EXIT_OK
    assert "count = 6" in capsys.readouterr().out
    assert main(["lattice", "enumerate", "A3*+A1*", "1/2"]) == EXIT_OK
    assert "count = 2" in capsys.readouterr().out
    assert main(["lattice", "dual", "A1"]) == EXIT_OK
    assert "1/2" in capsys.readouterr().out


def test_input_errors_exit_2(capsys):
    assert main(["symbol", "u^2 + t", "u = t^2"]) == EXIT_INPUT_ERROR
    assert main(["tangency", Q51, "u = t^3"]) == EXIT_INPUT_ERROR
    assert main(["curve", "check", Q51, "(1, 2,"]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_untabulated_fiber_at_infinity_exits_2(capsys):
    # an even tangential conic on a quartic with a smooth fiber at infinity:
    # tangency never reads the fiber types, the symbol commands reject them
    quartic = ("((-2*t)*(u - (t^2 + t + 3)) + (t^3 + t + 1))^2 "
               "+ (u - (t^2 + t + 3) + (-2*t^2 + t + 1))^2*(u - (t^2 + t + 3))")
    conic = "u = t^2 + t + 3"
    assert main(["tangency", quartic, conic]) == EXIT_OK
    assert "is_even_tangential = True" in capsys.readouterr().out
    for argv in (["symbol", quartic, conic], ["zariski", quartic, conic, conic],
                 ["feasibility", quartic, conic]):
        assert main(argv) == EXIT_INPUT_ERROR
        assert "no singular fiber at infinity" in capsys.readouterr().err


def test_records_output_is_byte_stable(capsys):
    assert main(["table", "--verify", "--rows", "1..5", "--format", "records"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["table", "--verify", "--rows", "1..5", "--format", "records"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    for line in first.strip().splitlines():
        rec = json.loads(line)
        assert rec["schema"] == "mwq.report.v1"


def test_records_carry_provenance(capsys):
    assert main(["symbol", Q51, C51_1, "--format", "records"]) == EXIT_OK
    out = capsys.readouterr().out
    recs = [json.loads(line) for line in out.strip().splitlines()]
    named = {r["name"]: r for r in recs if r["kind"] == "result"}
    assert "qr_symbol" in named["symbol"]["provenance"]
    assert "halve" in named["halving_witness"]["provenance"]


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    import mwq.cli as cli

    def broken(quartic, conic):
        raise ZeroDivisionError("simulated bug")

    monkeypatch.setattr(cli, "qr_symbol", broken)
    assert main(["symbol", Q51, C51_1]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal error: ZeroDivisionError: simulated bug" in err


def test_keyboard_interrupt_propagates(monkeypatch):
    import mwq.cli as cli

    def interrupted(quartic, conic):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "qr_symbol", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["symbol", Q51, C51_1])


# ---------------------------------------------------------------------------
# running time: no integer derived from the input is ever factored
# ---------------------------------------------------------------------------

# A 51-digit semiprime: (10^25 + 13) * (3*10^25 + 67).
N51 = 10000000000000000000000013 * 30000000000000000000000067
FACTOR_LIMIT = 10 ** 6


@pytest.fixture
def factoring_guard(monkeypatch):
    """Make sympy's integer factoring raise on any argument above FACTOR_LIMIT;
    yields the list of such arguments seen (empty when the guard held)."""
    import sympy
    import sympy.ntheory
    import sympy.ntheory.factor_

    seen = []

    def guarded(original):
        def wrapper(n, *args, **kwargs):
            if isinstance(n, (int, sympy.Integer)) and abs(int(n)) > FACTOR_LIMIT:
                seen.append(int(n))
                raise AssertionError(f"integer factoring of {n}")
            return original(n, *args, **kwargs)

        return wrapper

    for module, name in (
        (sympy, "divisors"),
        (sympy, "factorint"),
        (sympy.ntheory, "factorint"),
        (sympy.ntheory.factor_, "factorint"),
    ):
        monkeypatch.setattr(module, name, guarded(getattr(module, name)))
    return seen


def _rescaled(text: str, n: int) -> str:
    """The input under t -> n*t."""
    return text.replace("t", f"({n}*t)")


def _results(capsys) -> dict:
    recs = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    return {r["name"]: r["value"] for r in recs if r["kind"] == "result"}


def _certificate_expands_to_quartic(quartic: str, conic: str, cert: dict) -> bool:
    """f == (a1*(u - q) + a3)^2 + (u - q + a2)^2 * (u - q), expanded by sympy."""
    import sympy

    t, u = sympy.symbols("t u")

    def sym(text):
        return sympy.sympify(text.replace("^", "**"), locals={"t": t, "u": u})

    f, q = sym(quartic), sym(conic.split("=", 1)[1])
    a1, a2, a3 = (sym(cert[k]) for k in ("a1", "a2", "a3"))
    w = u - q
    return sympy.expand(f - (a1 * w + a3) ** 2 - (w + a2) ** 2 * w) == 0


@pytest.mark.parametrize("quartic, conic1, conic2, n", [
    (Q52, C52_1, C52_2, N51),
    (Q51, C51_1, C51_2, 1003),
])
def test_rescaled_examples_factor_no_input_integer(capsys, factoring_guard,
                                                   quartic, conic1, conic2, n):
    quartic, conic1, conic2 = (_rescaled(x, n) for x in (quartic, conic1, conic2))
    assert main(["symbol", quartic, conic1, "--format", "records"]) == EXIT_OK
    named = _results(capsys)
    assert named["symbol"] == 1
    assert _certificate_expands_to_quartic(quartic, conic1, named["splitting_certificate"])
    assert main(["symbol", quartic, conic2, "--format", "records"]) == EXIT_OK
    assert _results(capsys)["symbol"] == -1
    assert main(["zariski", quartic, conic1, conic2, "--format", "records"]) == EXIT_OK
    assert _results(capsys)["verdict"] == "ZariskiPair"
    assert factoring_guard == []


# ---------------------------------------------------------------------------
# golden records: the records stream of the worked examples, byte for byte
# ---------------------------------------------------------------------------

RECORDS_DIR = Path(__file__).parent / "data" / "records"
S51_T1 = EXAMPLES["5.1"]["s_t1"]
S51_T2 = EXAMPLES["5.1"]["s_t2"]

GOLDEN_RECORDS = {
    "example_5.1": ["example", "5.1"],
    "example_5.2": ["example", "5.2"],
    "symbol_5.1_conic1": ["symbol", Q51, C51_1],
    "symbol_5.1_conic2": ["symbol", Q51, C51_2],
    "zariski_5.1": ["zariski", Q51, C51_1, C51_2],
    "feasibility_5.1_conic1": ["feasibility", Q51, C51_1],
    "feasibility_5.1_conic2": ["feasibility", Q51, C51_2],
    "tangency_5.2_conic1": ["tangency", Q52, C52_1],
    "tangency_5.2_conic2": ["tangency", Q52, C52_2],
    "curve_fibers_5.1": ["curve", "fibers", Q51],
    "curve_height_5.1": ["curve", "height", Q51, S51_T1, S51_T2],
    "curve_height_5.1_component": ["curve", "height", Q51, S51_T1, S51_T2,
                                   "--component", "t-2025=1"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RECORDS))
def test_golden_records(capsys, name):
    assert main(GOLDEN_RECORDS[name] + ["--format", "records"]) == EXIT_OK
    expected = (RECORDS_DIR / f"{name}.jsonl").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


# ---------------------------------------------------------------------------
# each fact once: one analysis per quartic, one tangency and halving per conic
# ---------------------------------------------------------------------------

COUNTED = ("height_context", "singular_configuration", "even_tangency", "halve")


@pytest.fixture
def call_counts(monkeypatch):
    """Count calls of the COUNTED functions through every mwq namespace that
    binds them (the package binds names with `from .x import y`)."""
    counts = dict.fromkeys(COUNTED, 0)
    wrappers = {}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for module_name, module in list(sys.modules.items()):
        if module_name != "mwq" and not module_name.startswith("mwq."):
            continue
        for name in COUNTED:
            original = getattr(module, name, None)
            if original is None:
                continue
            if id(original) not in wrappers:
                wrappers[id(original)] = counting(name, original)
            monkeypatch.setattr(module, name, wrappers[id(original)])
    return counts


@pytest.mark.parametrize("argv, expected", [
    (["example", "5.1"],
     {"height_context": 1, "even_tangency": 2, "halve": 2, "singular_configuration": 1}),
    (["zariski", Q51, C51_1, C51_2], {"height_context": 1, "even_tangency": 2, "halve": 2}),
    (["symbol", Q51, C51_1], {"even_tangency": 1}),
], ids=["example_5.1", "zariski_5.1", "symbol_5.1_conic1"])
def test_each_fact_computed_once(capsys, call_counts, argv, expected):
    assert main(argv + ["--format", "records"]) == EXIT_OK
    capsys.readouterr()
    assert {name: call_counts[name] for name in expected} == expected
