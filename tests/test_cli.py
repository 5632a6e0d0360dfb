"""Round-trip parsing, report determinism, and the command-line surface."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mwq.cli as cli
import mwq.mwtable as mwtable
from mwq.cli import main
from mwq.lattice import dual_gram, enumerate_by_norm, lattice_from_text
from mwq.parsing import (
    POWER_CAP,
    RANK_CAP,
    InputFormatError,
    ParseError,
    bipoly_text,
    frac_text,
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
from mwq.poly import BiPoly, RatFn, UniPoly
from mwq.replay import EXAMPLES, run_example
from mwq.report import EXIT_INPUT_ERROR, EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, RunReport
from mwq.surface import SectionPoint

Q51 = "u^3 + (271350 - 98*t)*u^2 + t*(t-5825)*(t-2025)*u + 36*t^2*(t-2025)^2"
C51_1 = "u = 1/144*t^2 + 1231/72*t - 5143775/144"
C51_2 = "u = 1/36*t^2 + 435/2*t - 921375/4"
Q52 = "u^3 + (25*t + 9)*u^2 + (144*t^2 + t^3)*u + 16*t^4"
C52_1 = "u = 1/64*t^2 - 41/2*t + 315"
C52_2 = "u = t^2 + 192*t + 8640"
# 5.1 under t -> 2t - 2, then u -> u + 2t^2 - t + 1/2, and its first conic
Q51_IMAGE = ("u^3 + 6*u^2*t^2 - 199*u^2*t + 543095/2*u^2 + 12*u*t^4 - 788*u*t^3 "
             "+ 1055161*u*t^2 + 23110783*u*t - 93404445/4*u + 8*t^6 - 780*t^5 + 1024700*t^4 "
             "+ 45084093*t^3 + 523892391*t^2 - 4597213619/4*t + 4639308269/8")
C51_IMAGE_1 = "u = -71/36*t^2 + 1265/36*t - 5148767/144"
# 5.2 under t -> 3t - 5, then u -> u + t^2 - 3t + 1/2, and its second conic
Q52_IMAGE = ("u^3 + (3*t^2 + 66*t - 229/2)*u^2 + (3*t^4 + 159*t^3 + 509*t^2 - 3333*t + 13439/4)*u "
             "+ (t^6 + 93*t^5 + 3677/2*t^4 - 29589/2*t^3 + 146279/4*t^2 - 36108*t + 93669/8)")
C52_IMAGE_2 = "u = 8*t^2 + 549*t + 15409/2"
S51_T1 = EXAMPLES["5.1"]["s_t1"]
S51_T2 = EXAMPLES["5.1"]["s_t2"]


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
    assert main(["table", "--verify", "--rows", "1..1"]) == EXIT_OK
    assert "rows_matched = 1" in capsys.readouterr().out


def test_table_mismatch_detected_with_altered_fixture(capsys, monkeypatch):
    rows = list(mwtable.builtin_table())
    r = rows[39]
    rows[39] = mwtable.TableRow(r.row_no, r.sing_type, r.sing_text, r.line_class, r.fiber_roots,
                                r.mw_text, 99, r.qretc_expected, r.notes)
    monkeypatch.setattr(mwtable, "builtin_table", lambda: tuple(rows))
    assert main(["table", "--verify"]) == EXIT_MISMATCH
    out = capsys.readouterr().out
    assert "row[40]" in out and "MISMATCH" in out


def test_example_commands(capsys):
    assert main(["example", "5.1"]) == EXIT_OK
    assert main(["example", "5.2"]) == EXIT_OK
    capsys.readouterr()


def test_example_with_perturbed_fixture_mismatches(monkeypatch):
    data = dict(EXAMPLES["5.1"])
    data["s_t1"] = "(-32*t, 2*t^2 - 6930*t + 1)"
    monkeypatch.setitem(EXAMPLES, "5.1", data)
    report = run_example("5.1")
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


@pytest.mark.parametrize("curve, divisible, result", [
    ("y^2 = u^3 + 7*u^2 + u", True, "(1, 3)"),
    ("y^2 = u^3 + (t^2+7)*u^2 + u", False, None),
])
def test_curve_halve_of_a_two_torsion_section(capsys, curve, divisible, result):
    # y_P = 0 at every fiber, so no fiber separates the halving roots
    assert main(["curve", "halve", curve, "(0, 0)", "--format", "records"]) == EXIT_OK
    named = {r["name"]: r["value"] for r in map(json.loads, capsys.readouterr().out.splitlines())
             if r["kind"] == "result"}
    assert named == {"divisible_by_2": divisible, **({"result": result} if result else {})}


def test_curve_add_negate_commands(capsys):
    assert main(["curve", "negate", Q51, "(0, 6*t^2 - 12150*t)"]) == EXIT_OK
    assert "-6*t^2 + 12150*t" in capsys.readouterr().out
    assert main(["curve", "add", Q51, "(-32*t, 2*t^2 - 6930*t)",
                 "(-20*t, 4*t^2 - 4500*t)"]) == EXIT_OK
    assert "921375/4" in capsys.readouterr().out
    assert main(["curve", "add", Q51, "(-32*t, 2*t^2 - 6930*t)"]) == EXIT_INPUT_ERROR
    capsys.readouterr()


OFF_CURVE = "(1, t)"


@pytest.mark.parametrize("op, points", [
    ("add", [OFF_CURVE, S51_T1]),
    ("add", [S51_T1, OFF_CURVE]),
    ("double", [OFF_CURVE]),
    ("negate", [OFF_CURVE]),
    ("halve", [OFF_CURVE]),
    ("height", [OFF_CURVE, S51_T1]),
    ("height", [S51_T1, OFF_CURVE]),
    ("height", [OFF_CURVE, "O"]),
])
def test_off_curve_point_rejected_where_it_enters(capsys, op, points):
    assert main(["curve", op, Q51, *points]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert "not on the curve" in err and "internal error" not in err


def test_curve_check_reports_an_off_curve_point(capsys):
    assert main(["curve", "check", Q51, OFF_CURVE]) == EXIT_OK
    assert "on_curve = False" in capsys.readouterr().out


def test_unclassifiable_fiber_prints_infinite_valuation(capsys):
    # c6 vanishes identically, so v(c6) is infinite at every place
    assert main(["curve", "fibers", "u^3 - u"]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert "v(c6)=inf" in err and "1000000000" not in err


def test_nonmonic_curve_rejected(capsys):
    assert main(["curve", "fibers", "2*u^3 + t*u + 1"]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_curve_height_command(capsys):
    assert main(["curve", "height", Q51, "(-32*t, 2*t^2 - 6930*t)",
                 "(-20*t, 4*t^2 - 4500*t)"]) == EXIT_OK
    assert "height = 0" in capsys.readouterr().out


# Section text at the caps: the sums of high powers that once took seconds in
# the gcd, degree-100 powers and folded runs are answered; one step past a cap
# is refused with exit 2, by the cap's message at its token (the position
# within the coordinate's text).  No wall-clock bound is set.
SECTION_TEXT_AT_THE_CAPS = [
    ("(t+1)^50/(t+2)^50+(t+5)^50/(t+3)^50", None),
    ("(t+1)^50/(t+2)^50+1/(t+3)^50", None),
    ("t^100", None),
    ("(t+1)^100", None),
    ("-2335/576*t^100", None),
    ("t^50*t^50", None),
    ("t*(t+1)^99", None),
    ("t^100/(t+1)^100", None),
    ("t^100*t", ("product exceeds the cap: degree at most 100", 5)),
    ("t^99*(t+1)^2", ("product exceeds the cap: degree at most 100", 4)),
    ("2*t^101", ("power exceeds the cap: exponent and degree at most 100", 4)),
    ("(t+1)^101", ("power exceeds the cap: exponent and degree at most 100", 6)),
    ("2^101*t", ("power exceeds the cap: exponent and degree at most 100", 2)),
    ("1/t^60/t^41", ("quotient exceeds the cap: degree at most 100", 6)),
    ("1/t^60 - 1/(t+1)^41", ("difference exceeds the cap: degree at most 100", 7)),
    ("3/0*t", ("division by zero", 1)),
    ("2*" + "7" * 5000, ("integer literal of 5000 digits is too long", 2)),
]


@pytest.mark.parametrize("text, refusal", SECTION_TEXT_AT_THE_CAPS,
                         ids=[text[:24] for text, _ in SECTION_TEXT_AT_THE_CAPS])
def test_section_text_at_the_caps_is_answered_or_refused(capsys, text, refusal):
    for section, offset in ((f"({text}, 1)", 1), (f"(1, {text})", 4)):
        rc = main(["curve", "check", Q51, section])
        out, err = capsys.readouterr()
        if refusal is None:
            assert rc == EXIT_OK and "on_curve = False" in out, err
        else:
            message, pos = refusal
            assert rc == EXIT_INPUT_ERROR
            assert f"{message} (at position {pos + offset})" in err


def test_lattice_commands(capsys):
    assert main(["lattice", "roots", "A2"]) == EXIT_OK
    assert "count = 6" in capsys.readouterr().out
    assert main(["lattice", "enumerate", "A3*+A1*", "1/2"]) == EXIT_OK
    assert "count = 2" in capsys.readouterr().out
    assert main(["lattice", "dual", "A1"]) == EXIT_OK
    assert "1/2" in capsys.readouterr().out


@pytest.mark.parametrize("text", ["A3+", "", "A3^0", "[[1]]^-1"])
def test_lattice_grammar_rejects_empty_summands_and_powers_below_one(capsys, text):
    assert main(["lattice", "enumerate", text, "2"]) == EXIT_INPUT_ERROR
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize("text", ["<1/0>", "(1/0)[[2]]", "[[1/0]]"])
def test_lattice_grammar_rejects_zero_denominators(capsys, text):
    assert main(["lattice", "enumerate", text, "2"]) == EXIT_INPUT_ERROR
    assert "internal error" not in capsys.readouterr().err


# a bad summand is reported as it is alone, also inside one block-diagonal sum
@pytest.mark.parametrize("text, message", [
    ("[[1,2],[3]]", "must be square"),
    ("A1+[[1,2],[3]]", "must be square"),
    ("[[2,1],[0,2]]", "must be symmetric"),
    ("A1+[[2,1],[0,2]]", "must be symmetric"),
    ("[[1,2],[2,1]]", "must be positive definite"),
    ("A1+[[1,2],[2,1]]", "must be positive definite"),
    ("<1/2", "bad lattice atom '<1/2'"),
    ("A1+<1/2", "bad lattice atom '<1/2'"),
    ("A", "bad lattice atom 'A'"),
    ("A1^x", "bad power 'x' in 'A1^x'"),
    ("D4+A1^x", "bad power 'x' in 'A1^x'"),
    ("Z/Z", "bad lattice atom 'Z/Z'"),
])
def test_lattice_grammar_names_the_bad_summand(capsys, text, message):
    assert main(["lattice", "enumerate", text, "2"]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert message in err and "internal error" not in err


# the rank is read off the text, so a sum over the cap is refused before its
# Gram is built; torsion factors count one each
@pytest.mark.parametrize("text", ["A1^100000", "A100000", "A100000*", f"A1^{RANK_CAP + 1}",
                                  f"A1^{RANK_CAP}+A1", "(1/3)[[2,1],[1,2]]^51",
                                  "Z/3Z^1000000000"])
def test_lattice_rank_cap_is_an_input_error(capsys, text):
    assert main(["lattice", "enumerate", text, "2"]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert f"at most {RANK_CAP}" in err and "internal error" not in err


# the caps bound the text, the node budget bounds the walk: a small rank with a
# huge norm is refused by the count, before the walk does the work, while A100's
# roots (166,650 nodes) stay well inside it
def test_walk_node_budget_is_an_input_error(capsys):
    from mwq.lattice import WALK_NODE_BUDGET

    assert main(["lattice", "enumerate", "A2", "99999999999999999999999"]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert f"budget of {WALK_NODE_BUDGET} nodes" in err and "internal error" not in err
    assert main(["lattice", "roots", "A100", "--format", "records"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["value"] for r in records if r.get("name") == "count"] == [10100]


# numerals are an optional sign, digits and an optional /digits: Python's
# Fraction(str) forms (underscores, decimals, exponents, spaces, non-ASCII
# digits) are input errors that name the text
@pytest.mark.parametrize("lattice, norm, message", [
    ("A1", "2_0", "'2_0'"),
    ("A1", "2.0", "'2.0'"),
    ("A1", "1e0", "'1e0'"),
    ("A1", " 2", "' 2'"),
    ("A1", "\u0662", "'\u0662'"),
    ("A1", "1/0", "zero denominator in '1/0'"),
    ("A1", "1/" + "1" * 5000, "number of 5002 characters is too long"),
    ("<2.0>", "2", "'2.0'"),
    ("[[2_0]]", "2", "'2_0'"),
    ("(1e0)[[2]]", "2", "'1e0'"),
    ("[[2,0x1],[0x1,2]]", "2", "'0x1'"),
    ("A1^1_0", "2", "bad power '1_0'"),
    # a space is dropped next to a delimiter only, never inside a numeral or a name
    ("[[1 0]]", "2", "'1 0'"),
    ("[[2,- 1]]", "2", "'- 1'"),
    ("A1 0", "2", "bad lattice atom 'A1 0'"),
])
def test_lattice_numerals_follow_the_documented_grammar(capsys, lattice, norm, message):
    assert main(["lattice", "enumerate", lattice, norm]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert message in err and "internal error" not in err


@pytest.mark.parametrize("spaced, bare", [
    ("D4* + A1*", "D4*+A1*"),
    ("[[2, 1], [1, 3]]", "[[2,1],[1,3]]"),
    (" (1/10) [[2,1],[1,3]] ", "(1/10)[[2,1],[1,3]]"),
    ("<1/6> ^ 2", "<1/6>^2"),
    ("E6* + A2 ^ 2", "E6*+A2^2"),
])
def test_lattice_spaces_next_to_delimiters_are_dropped(capsys, spaced, bare):
    outputs = []
    for text in (spaced, bare):
        assert main(["lattice", "dual", text]) == EXIT_OK
        outputs.append(capsys.readouterr().out.replace(text, ""))
    assert outputs[0] == outputs[1]


def test_lattice_numerals_take_a_sign_and_a_fraction(capsys):
    assert main(["lattice", "enumerate", "(+2/2)[[+2,-1],[-1,2]]", "+4/2"]) == EXIT_OK
    assert "count = 6" in capsys.readouterr().out
    assert main(["lattice", "enumerate", "<-1>", "2"]) == EXIT_INPUT_ERROR
    assert "positive definite" in capsys.readouterr().err


# a row or a range a..b in ASCII digits (not `int()`'s forms: `1_0`, `+5`,
# ` 5`, non-ASCII digits); the message names the text
@pytest.mark.parametrize("rows", ["70", "5..3", "0..2", "1..100", "1_0", "x", "+5", "5..", "\u0665"])
def test_table_rejects_row_ranges_outside_the_table(capsys, rows):
    assert main(["table", "--verify", "--rows", rows]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert "rows_matched" not in captured.out and "internal error" not in captured.err
    assert f"row range {rows!r}" in captured.err


def test_input_errors_exit_2(capsys):
    assert main(["symbol", "u^2 + t", "u = t^2"]) == EXIT_INPUT_ERROR
    assert main(["tangency", Q51, "u = t^3"]) == EXIT_INPUT_ERROR
    assert main(["curve", "check", Q51, "(1, 2,"]) == EXIT_INPUT_ERROR
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:  # a usage error: the option does not exist
        main(["curve", "height", Q51, "(0, 6*t^2 - 12150*t)", "(0, 6*t^2 - 12150*t)",
              "--component", "t=1"])
    assert exc.value.code == EXIT_INPUT_ERROR
    assert "--component" in capsys.readouterr().err


# (argv, what stderr must name): each a usage error of one command, or of none
USAGE_ERRORS = [
    ([], "command"),
    (["frob"], "'frob'"),
    (["table", "extra"], "'extra'"),
    (["table", "--rows"], "--rows"),
    (["table", "--verif"], "--verif"),  # an option is spelled in full
    (["table", "--verify=yes"], "--verify"),
    (["example"], "which"),
    (["example", "9.9"], "'9.9'"),
    (["tangency", Q52], "conic"),
    (["symbol", Q52, C52_1, "extra"], "'extra'"),
    (["symbol", Q52, C52_1, "--format"], "--format"),
    (["symbol", Q52, C52_1, "--format", "xml"], "'xml'"),
    (["zariski", Q52, C52_1], "conic2"),
    (["feasibility"], "quartic conic"),
    (["curve", "frob", Q52], "'frob'"),
    (["curve", "check"], "curve"),
    (["lattice", "frob", "A2"], "'frob'"),
    (["lattice", "enumerate", "A2", "2", "3"], "'3'"),
]


@pytest.mark.parametrize("argv, named", USAGE_ERRORS,
                         ids=[f"{(argv or ['none'])[0]}:{named}" for argv, named in USAGE_ERRORS])
def test_usage_errors_exit_2_naming_the_argument(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: mwq ")
    assert named in err.splitlines()[-1]


COMMAND_POSITIONALS = {
    "table": (), "example": ("which",), "tangency": ("quartic", "conic"),
    "symbol": ("quartic", "conic"), "zariski": ("quartic", "conic1", "conic2"),
    "feasibility": ("quartic", "conic"), "curve": ("op", "curve", "p1", "p2"),
    "lattice": ("op", "lattice", "norm"),
}


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_command_and_positional(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name, positionals in COMMAND_POSITIONALS.items():
        assert f"\n  {' '.join((name, *positionals))}" in out.replace("[", "").replace("]", "")
        with pytest.raises(SystemExit) as exc:
            main([name, "--format", "records", flag, "ignored"])
        assert exc.value.code == 0
        out_command = capsys.readouterr().out
        assert out_command.startswith(f"usage: mwq {name}")
        for positional in positionals:
            assert f"\n  {positional} " in out_command


def test_option_values_after_an_equals_sign(capsys):
    for spaced, joined in (
        (["symbol", Q52, C52_1, "--format", "records"], ["symbol", Q52, C52_1, "--format=records"]),
        (["table", "--rows", "3..4", "--verify"], ["table", "--verify", "--rows=3..4"]),
    ):
        outputs = []
        for argv in (spaced, joined):
            assert main(argv) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


def test_arguments_after_a_double_dash_are_positionals(capsys):
    negated_twice = "--(" + C52_1.removeprefix("u = ") + ")"
    assert main(["symbol", "--format", "records", "--", Q52, negated_twice]) == EXIT_OK
    assert _results(capsys)["symbol"] == 1
    # read as a norm, not as a request for help
    assert main(["lattice", "enumerate", "--", "A2", "-h"]) == EXIT_INPUT_ERROR
    assert "bad number '-h'" in capsys.readouterr().err
    with pytest.raises(SystemExit):  # before `--`, an option
        main(["symbol", Q52, negated_twice])
    assert "unknown option" in capsys.readouterr().err
    # a single dash starts no option: `-2` is the norm, refused as such
    assert main(["lattice", "enumerate", "A2", "-2"]) == EXIT_INPUT_ERROR
    assert "norm must be positive" in capsys.readouterr().err


# Valid and broken fragments for each kind of positional, for the whole
# command-line fuzz; lattice norms stay at most 10, so that no walk is long.
FUZZ_FRAGMENTS = {
    "quartic": (Q51, Q52, Q52_IMAGE, "y^2 = u^3 + t^2*u + 1", "u^3 - 3*u + t^2",
                "u^3 + t^4*u + t^6", "u^3 + t*u^2 + t^3*u", "u^3 + t", "u^2 + t", "u^3 + t^7",
                "u^3 + (t", "u^3 + 1/0", "u^3 + t^99999*u", "u^3 + t^-1", "u^3 + x", "y^2 = ", ""),
    "conic": (C51_1, C51_2, C52_1, C52_2, "u = t^2", "t^2 + 1", "u = t^3", "u = 0*t^2",
              "u = ", "u = 1/(t", "u = t^2 + s", "u = (t^2 + 1)/t"),
    "section": ("O", "(0, 6*t^2 - 12150*t)", S51_T1, S51_T2, "(0, 4*t^2)", "(0, 0)", "(t, t^2)",
                "(0, t^3)", "(1, 2,", "(1/t, 1)", "(t^2/(t - 1), 1)", "(t^-1, 1)", "()",
                "(0, 1/0)"),
    "lattice": ("A1", "A2", "D4", "D4*+A1*", "<1/6>", "E6*", "(1/10)[[2,1],[1,3]]",
                "[[2,1],[1,2]]", "A0", "Z5", "[[1,2],[2,1]]", "[[0]]", "(1/0)[[1]]", "A2+", "<-1>"),
    "norm": ("0", "1", "2", "1/2", "4/3", "10", "-1", "x", "1/0", "3/7", "1e3"),
}
FUZZ_KIND = {"quartic": "quartic", "curve": "quartic", "conic": "conic", "conic1": "conic",
             "conic2": "conic", "p1": "section", "p2": "section", "lattice": "lattice",
             "norm": "norm"}
FUZZ_NOISE = ("--format", "records", "--format=text", "--format=xml", "--", "--help", "-h",
              "--frob", "--verify", "--rows", "1..2", "70", "")


@st.composite
def _fuzz_argv(draw):
    """A command of `_COMMANDS`, its positionals (one too few, all, or one
    too many) drawn from the fragments of their kind or from their choices,
    and options, `--` and noise words put in at drawn places."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    spec = cli._COMMANDS[name].positionals
    count = draw(st.sampled_from([len(spec)] * 4 + [len(spec) - 1, len(spec) + 1]))
    argv = []
    for p in spec[:count]:
        pool = (*p.choices, "frob") if p.choices else FUZZ_FRAGMENTS[FUZZ_KIND[p.name]]
        argv.append(draw(st.sampled_from(pool)))
    if count > len(spec):
        argv.append(draw(st.sampled_from(FUZZ_FRAGMENTS["quartic"])))
    noise = draw(st.lists(st.sampled_from(FUZZ_NOISE), max_size=2)) if draw(st.booleans()) else []
    for word in noise:
        argv.insert(draw(st.integers(0, len(argv))), word)
    return [name, *argv]


@settings(max_examples=300, deadline=None)
@given(argv=_fuzz_argv())
def test_no_command_line_exits_3(argv):
    """Whatever the words, a run ends in 0, 1 or 2: an answer, a mismatch or
    an input error, never an internal error or an uncaught exception."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # help and usage errors
            code = exc.code
    assert code in (EXIT_OK, EXIT_MISMATCH, EXIT_INPUT_ERROR), (argv, err.getvalue())


@pytest.mark.parametrize("argv", [
    ["curve", "fibers", "u^3 + t^1000000*u + 1"],
    ["curve", "check", Q51, "((t^1000)^1000, 1)"],
    ["curve", "fibers", "u^3 + " + "*".join(["(t + 1)^100"] * 1000) + "*u + 1"],
    ["curve", "check", Q51, "(" + "/".join(["(t + 1)^-100"] * 1000) + ", 1)"],
], ids=["exponent", "degree", "product", "quotient"])
def test_powers_over_the_cap_exit_2_before_expansion(capsys, argv):
    # expanded, each input would run for hours before a degree bound fails
    assert main(argv) == EXIT_INPUT_ERROR
    assert f"at most {POWER_CAP}" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["(" * 5000 + "t" + ")" * 5000, "-" * 5000 + "t"],
                         ids=["parentheses", "unary_minus"])
def test_deep_nesting_exits_2(capsys, text):
    assert main(["curve", "fibers", f"u^3 + {text}*u + 1"]) == EXIT_INPUT_ERROR
    assert "nesting exceeds the cap" in capsys.readouterr().err


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


def _value_record(rep: RunReport) -> dict:
    """The last result record of `rep`, as a reader of the stream sees it."""
    return json.loads(rep.render_records().splitlines()[-1])


def test_plain_keeps_the_walks_integer_vectors(monkeypatch):
    """The report holds the walk's own list: neither format copies it."""
    seen = {}

    def emit(rep, fmt):
        seen["rep"] = rep
        return EXIT_OK

    monkeypatch.setattr(cli, "enumerate_by_norm",
                        lambda *a: seen.setdefault("vecs", enumerate_by_norm(*a)))
    monkeypatch.setattr(cli, "_emit", emit)
    assert main(["lattice", "enumerate", "A2", "2"]) == EXIT_OK
    rep, vecs = seen["rep"], seen["vecs"]
    assert rep.results[-1].value is vecs and len(vecs) == 6
    assert _value_record(rep)["value"] == [list(v) for v in vecs]
    empty = RunReport("check")
    empty.add("vectors", [])
    assert _value_record(empty)["value"] == []
    assert empty.render_text().splitlines()[1] == "  vectors = []"


def test_plain_writes_fraction_rows_as_strings(capsys):
    lat, _ = lattice_from_text("A2")
    gram = dual_gram(lat).gram
    assert type(gram) is tuple and type(gram[0][0]) is Fraction
    assert main(["lattice", "dual", "A2", "--format", "records"]) == EXIT_OK
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert recs[1]["name"] == "gram" and recs[1]["value"] == [["2/3", "1/3"], ["1/3", "2/3"]]
    assert main(["lattice", "dual", "A2", "--format", "text"]) == EXIT_OK
    assert "  gram = [[2/3, 1/3], [1/3, 2/3]]\n" in capsys.readouterr().out


def test_plain_converts_a_mixed_list_item_by_item():
    rep = RunReport("check")
    rep.add("mixed", [(1, 2), (Fraction(1, 2), 3)])
    assert _value_record(rep)["value"] == [[1, 2], ["1/2", 3]]
    assert rep.render_text().splitlines()[1] == "  mixed = [[1, 2], [1/2, 3]]"


def test_plain_keeps_a_bool_in_a_vector_a_json_bool():
    rep = RunReport("check")
    rep.add("vectors", [(1, True), (0, False)])
    assert '"value": [[1, true], [0, false]]' in rep.render_records()


def _old_plain(value):
    """The conversion every value went through before it was stored, kept as
    the oracle of both formats (less its type scan, which only spared a copy)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_old_plain(v) for v in value]
    if isinstance(value, Fraction):
        return frac_text(value)
    if isinstance(value, UniPoly):
        return poly_text(value)
    if isinstance(value, RatFn):
        return ratfn_text(value)
    if isinstance(value, BiPoly):
        return bipoly_text(value)
    if isinstance(value, SectionPoint):
        return section_text(value)
    if isinstance(value, dict):
        return {str(k): _old_plain(v) for k, v in value.items()}
    return str(value)


def _old_fmt(value):
    if isinstance(value, list):
        return "[" + ", ".join(_old_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_old_fmt(v)}" for k, v in value.items()) + "}"
    return str(value)


class _Pair(NamedTuple):
    height: Fraction
    place: UniPoly


VALUE_ZOO = {
    "section_in_dict": {"value": 1, "route": "halving", "witness": parse_section(S51_T1)},
    "contact": [{"place": parse_unipoly("t^2 - 2"), "multiplicity": 2},
                {"place": parse_unipoly("t + 1/3"), "multiplicity": 4}],
    "bool_in_vector": [(1, True), (0, False)],
    "empty": [],
    "fraction_rows": ((Fraction(2, 3), Fraction(-1, 3)), (Fraction(-1, 3), Fraction(2))),
    "named_tuple": _Pair(Fraction(-7, 4), parse_unipoly("t^3 - t")),
    "ratfn_bipoly_none": [parse_ratfn("(t^2 + 1)/(t - 3)"), parse_bipoly("u^2 - t*u + 1/2"),
                          None, "smooth", Fraction(5)],
}


@pytest.mark.parametrize("name", sorted(VALUE_ZOO))
def test_value_zoo_renders_as_the_old_conversion(name):
    """Values are stored as computed and converted only where a format writes
    them; both formats read as they did when every value was converted first."""
    value = VALUE_ZOO[name]
    rep = RunReport("zoo", {"seed": "1"})
    rep.add(name, value, ("zoo",), ok=True)
    recs = rep.to_records()
    recs[1]["value"] = _old_plain(value)
    assert rep.render_records() == "\n".join(json.dumps(r, sort_keys=True) for r in recs)
    assert rep.render_text().splitlines()[2] == f"  {name} = {_old_fmt(_old_plain(value))}  [ok]"


# `--format text` of the lattice commands, byte for byte: `_fmt` on the walk's
# tuples and on a Gram of Fractions
LATTICE_TEXT = {
    ("enumerate", "A2", "2"): (
        "# lattice enumerate\n"
        "  input lattice: A2\n"
        "  input norm: 2\n"
        "  count = 6\n"
        "  vectors = [[-1, -1], [-1, 0], [0, -1], [0, 1], [1, 0], [1, 1]]\n"
        "status: ok\n"
    ),
    ("dual", "A2"): (
        "# lattice dual\n"
        "  input lattice: A2\n"
        "  gram = [[2/3, 1/3], [1/3, 2/3]]\n"
        "  det = 1/3\n"
        "status: ok\n"
    ),
}


@pytest.mark.parametrize("args", sorted(LATTICE_TEXT))
def test_lattice_text_format_is_pinned(capsys, args):
    assert main(["lattice", *args, "--format", "text"]) == EXIT_OK
    assert capsys.readouterr().out == LATTICE_TEXT[args]


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


@pytest.mark.parametrize("argv", [
    ["curve", "fibers", Q51],
    ["lattice", "enumerate", "E8", "4"],
], ids=["fibers_5.1", "E8_4"])
def test_closed_pipe_exits_with_the_reports_code(argv):
    """A reader that stops early (`mwq ... | head -1`) makes the write fail;
    the run still exits with its report's code and writes nothing to stderr."""
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "mwq", *argv, "--format", "records"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    proc.stdout.close()  # before the command writes its first byte
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_OK
    assert err == b""


def test_result_past_the_int_to_str_limit_prints_exactly(capsys):
    # doubling (0, N) on y^2 = u^3 + u + N^2 gives x = 1/(4 N^2), whose
    # denominator has 5000 digits, more than str() prints by default
    n = int("7" * 2500)
    big = str(n)
    argv = ["curve", "double", f"u^3 + u + {big}*{big}", f"(0, {big})", "--format", "records"]
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    value = [json.loads(line) for line in out.splitlines()][-1]["value"]
    x_text = value[1:-1].split(", ")[0]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert Fraction(x_text) == Fraction(1, 4 * n * n)
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# running time: no integer derived from the input is ever factored
# ---------------------------------------------------------------------------

# A 51-digit semiprime: (10^25 + 13) * (3*10^25 + 67).
N51 = 10000000000000000000000013 * 30000000000000000000000067
PRIME_LIMIT = 10 ** 3


@pytest.fixture
def prime_guard(monkeypatch):
    """Record every prime that `mwq.poly._primes` yields, the only place where
    mwq enumerates primes; returns the list of them."""
    import mwq.poly

    drawn = []
    primes = mwq.poly._primes

    def recorded():
        for q in primes():
            drawn.append(q)
            yield q

    monkeypatch.setattr(mwq.poly, "_primes", recorded)
    return drawn


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
def test_rescaled_examples_factor_no_input_integer(capsys, prime_guard,
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
    # the primes drawn are bounded by the bit size of the input, not its value
    assert prime_guard and max(prime_guard) < PRIME_LIMIT


# ---------------------------------------------------------------------------
# golden records: the records stream of the worked examples and of the
# lattice path, byte for byte
# ---------------------------------------------------------------------------

RECORDS_DIR = Path(__file__).parent / "data" / "records"

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
    "symbol_5.1_image_conic1": ["symbol", Q51_IMAGE, C51_IMAGE_1],
    # symbol -1 on an image, by the halving-absence route
    "symbol_5.2_image_conic2": ["symbol", Q52_IMAGE, C52_IMAGE_2],
    # the first 5.1 conic moved by 1: a contact of odd multiplicity
    "tangency_5.1_odd_contact": ["tangency", Q51, "u = 1/144*t^2 + 1231/72*t - 5143631/144"],
    # f(t, t^2) = 2 (t^2 + 1)^2: even multiplicities, but not a square over Q
    "tangency_even_nonsquare_lead": ["tangency", "(u - t^2)*(u - 2*t)*(u + t) + 2*(t^2 + 1)^2",
                                     "u = t^2"],
    # 2021 = 43 * 47
    "zariski_5.2_rescaled_N2021": ["zariski", *(_rescaled(x, 2021) for x in (Q52, C52_1, C52_2))],
    "curve_fibers_5.1": ["curve", "fibers", Q51],
    # disc = 108 - 27 t^2: the I1 places t -+ 2 are one block, II* at infinity
    "curve_fibers_reducible_I1": ["curve", "fibers", "u^3 - 3*u + t"],
    # one Yun block of degree 6 and multiplicity 2 that c4 cuts into I2 over
    # t^2 - 2 and II over t^4 - 13/3 t^2 + 4
    "curve_fibers_mixed_I2_II_block": [
        "curve", "fibers", "u^3 + (9*(t^2-2)^2 - 3*t^2)*u + 2*t^3 - 6*t*(t^2-2)^2"],
    "curve_height_5.1": ["curve", "height", Q51, S51_T1, S51_T2],
    # a 2-torsion section through the I2 fiber over the degree-2 place t^2 - 2
    "curve_height_torsion_I2_degree2": ["curve", "height", "u^3 + u^2 + (t^2 - 2)*u",
                                        "(0, 0)", "(0, 0)"],
    "lattice_enumerate_E8_4": ["lattice", "enumerate", "E8", "4"],
    # E6* in a skewed basis (a unimodular change of the inverse Cartan matrix)
    "lattice_enumerate_E6dual_skew_4": [
        "lattice", "enumerate",
        "(1/3)[[10,-1,-19,-21,-7,6],[-1,4,4,6,1,-3],[-19,4,58,66,28,-15],"
        "[-21,6,66,78,33,-18],[-7,1,28,33,16,-6],[6,-3,-15,-18,-6,6]]", "4"],
    "lattice_enumerate_D4dual_A1dual_half": ["lattice", "enumerate", "D4*+A1*", "1/2"],
    "table_verify": ["table", "--verify"],
    # the dual of table row 37's free part; its det is read off the elimination
    "lattice_dual_row37": ["lattice", "dual", "(1/10)[[3,1,-1],[1,7,3],[-1,3,7]]"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RECORDS))
def test_golden_records(capsys, name):
    assert main(GOLDEN_RECORDS[name] + ["--format", "records"]) == EXIT_OK
    expected = (RECORDS_DIR / f"{name}.jsonl").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def _golden_certificates():
    """(quartic, conic, certificate texts) of each golden symbol record that
    holds a splitting certificate."""
    for name in sorted(GOLDEN_RECORDS):
        argv = GOLDEN_RECORDS[name]
        lines = (RECORDS_DIR / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
        for rec in map(json.loads, lines):
            if argv[0] == "symbol" and rec.get("name") == "splitting_certificate":
                yield pytest.param(argv[1], argv[2], rec["value"], id=name)


@pytest.mark.parametrize("quartic, conic, cert", list(_golden_certificates()))
def test_certificate_check_agrees_with_sympy_on_the_goldens(quartic, conic, cert):
    """`verify_splitting_certificate` and the sympy expansion agree on each
    golden certificate, which holds, and on each of its corruptions: a
    constant added to a1, a2 or a3, or a changed top coefficient (of t^k in
    a_k), each of which fails."""
    from mwq.quartic import Conic, PreparedQuartic, SplittingCertificate, verify_splitting_certificate

    q, c = PreparedQuartic(parse_curve_rhs(quartic)), Conic(parse_conic_rhs(conic))
    variants = [cert] + [{**cert, key: f"({cert[key]}) + {bump}"}
                         for k, key in enumerate(("a1", "a2", "a3"), start=1)
                         for bump in ("1", f"t^{k}")]
    for texts in variants:
        expanded = _certificate_expands_to_quartic(quartic, conic, texts)
        assert expanded == (texts is cert)
        certificate = SplittingCertificate(*(parse_unipoly(texts[k]) for k in ("a1", "a2", "a3")))
        assert verify_splitting_certificate(q, c, certificate) == expanded


def _public_functions() -> set[str]:
    """Names of the public functions defined in the mwq modules."""
    import importlib
    import inspect
    import pkgutil

    import mwq

    names = set()
    for info in pkgutil.iter_modules(mwq.__path__):
        if info.name.startswith("_"):
            continue  # __main__ runs the command line on import
        module = importlib.import_module(f"mwq.{info.name}")
        names.update(
            name for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        )
    return names


def test_golden_provenance_names_public_functions():
    public = _public_functions()
    for path in sorted(RECORDS_DIR.glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            unknown = sorted(set(rec.get("provenance", ())) - public)
            assert not unknown, (path.name, rec.get("name"), unknown)


# public names that neither src/ nor README.md uses, each with its reason
TEST_ONLY_API: dict[str, str] = {}


def test_public_api_is_used_in_src_or_named_in_readme():
    """Every public module-level function or class of mwq is referenced by
    another top-level statement of src/ or named in README.md, and every public
    non-dunder method is read as an attribute of that name outside its own body
    or named in README.md: no test-only API."""
    import ast
    import re

    root = Path(__file__).resolve().parent.parent
    defined, used = {}, set()
    methods = {}  # "Class.method" -> (method name, file)
    attrs = []  # (the "Class.method" whose body it is, or None; attribute names read)
    for path in sorted((root / "src" / "mwq").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defined[stmt.name] = path.name
                names.discard(stmt.name)  # a recursive call is no use from elsewhere
            used |= names
            is_class = isinstance(stmt, ast.ClassDef)
            for part in stmt.body if is_class else [stmt]:
                owner = None
                if is_class and isinstance(part, ast.FunctionDef) and not part.name.startswith("_"):
                    owner = f"{stmt.name}.{part.name}"
                    methods[owner] = (part.name, path.name)
                attrs.append((owner, {n.attr for n in ast.walk(part) if isinstance(n, ast.Attribute)}))
    readme = root.joinpath("README.md").read_text(encoding="utf-8")
    unused = sorted(
        name for name in set(defined) - used - set(TEST_ONLY_API)
        if not re.search(rf"\b{name}\b", readme)
    )
    unused += sorted(
        key for key, (name, _file) in methods.items()
        if not any(name in names for owner, names in attrs if owner != key)
        and not re.search(rf"\b{name}\b", readme)
    )
    assert not unused, [(name, defined.get(name) or methods[name][1]) for name in unused]
    assert all(name in defined and name not in used for name in TEST_ONLY_API)


# ---------------------------------------------------------------------------
# each fact once: one analysis per quartic, one classification per bad fiber,
# one tangency and halving per conic, one pass for the discriminant, c4 and c6
# per curve (the fiber at infinity is read off the degree of the discriminant,
# which has weight 12)
# ---------------------------------------------------------------------------

COUNTED = ("height_context", "singular_configuration", "even_tangency", "halve",
           "_classify", "cubic_invariants", "on_curve", "_fiber_jets", "_self_height")


@pytest.fixture
def call_counts(monkeypatch):
    """Count calls of the COUNTED functions through every mwq namespace that
    binds them (the package binds names with `from .x import y`), and of the
    method `UniPoly.jet` as "jet"."""
    counts = dict.fromkeys(COUNTED + ("jet",), 0)
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
    monkeypatch.setattr(UniPoly, "jet", counting("jet", UniPoly.jet))
    return counts


@pytest.mark.parametrize("argv, expected", [
    # four bad places, each classified once: t, t-2025, a quintic and
    # infinity; the three sections are checked on the curve once, as reported
    # records, and nothing else is (a conic's lift is a checked square root);
    # the fiber at infinity reads the valuations of the curve's own
    # discriminant, c4, c6; four self-heights: s_o, s_t1, s_t2 and s_t1 - s_t2
    (["example", "5.1"],
     {"height_context": 1, "even_tangency": 2, "halve": 2, "singular_configuration": 1,
      "_classify": 4, "cubic_invariants": 1, "on_curve": 3, "_self_height": 4}),
    # three bad places: t (I4), a quintic (I1) and infinity (III)
    (["example", "5.2"],
     {"height_context": 1, "_classify": 3, "cubic_invariants": 1, "on_curve": 3,
      "_self_height": 4}),
    # the curve's jets at its good fiber are built once, by `two_torsion_free`
    # (one jet each of c1, c2 and c3), and both halvings read them, each
    # adding the one jet of its x_P
    (["zariski", Q51, C51_1, C51_2],
     {"height_context": 1, "even_tangency": 2, "halve": 2, "on_curve": 0, "_fiber_jets": 1,
      "jet": 5}),
    (["symbol", Q51, C51_1], {"even_tangency": 1, "on_curve": 0}),
], ids=["example_5.1", "example_5.2", "zariski_5.1", "symbol_5.1_conic1"])
def test_each_fact_computed_once(capsys, call_counts, argv, expected):
    assert main(argv + ["--format", "records"]) == EXIT_OK
    capsys.readouterr()
    assert {name: call_counts[name] for name in expected} == expected


# No command imports sympy: each runs in a fresh interpreter where
# `import sympy` raises, and prints its golden records byte for byte.
SYMPY_BLOCKED = ("import sys; sys.modules['sympy'] = None; "
                 "from mwq.cli import main; sys.exit(main(sys.argv[1:]))")
NOT_GOLDEN = {
    "tangency_5.1_conic2": ["tangency", Q51, C51_2],
    "zariski_5.2_rescaled_N51": ["zariski", *(_rescaled(x, N51) for x in (Q52, C52_1, C52_2))],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RECORDS) + sorted(NOT_GOLDEN))
def test_cli_runs_with_sympy_blocked(name):
    root = Path(__file__).resolve().parent.parent
    argv = GOLDEN_RECORDS.get(name) or NOT_GOLDEN[name]
    proc = subprocess.run(
        [sys.executable, "-c", SYMPY_BLOCKED, *argv, "--format", "records"],
        cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    if name in GOLDEN_RECORDS:
        assert proc.stdout == (RECORDS_DIR / f"{name}.jsonl").read_text(encoding="utf-8")
    elif name == "zariski_5.2_rescaled_N51":
        recs = [json.loads(line) for line in proc.stdout.splitlines()]
        results = {r["name"]: r["value"] for r in recs if r["kind"] == "result"}
        assert results["verdict"] == "ZariskiPair"


# The table's Mordell-Weil structures are built only where a count reads them:
# a fresh interpreter counts the `make_mw_structure` calls of one command.
COUNT_MW = ("import sys, mwq.mwtable as t\n"
            "calls, real = [], t.make_mw_structure\n"
            "t.make_mw_structure = lambda *a: calls.append(1) or real(*a)\n"
            "from mwq.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print(len(calls), file=sys.stderr)\n"
            "sys.exit(rc)")


@pytest.mark.parametrize("argv, expected", [
    (["symbol", Q51, C51_1], 0),
    (["zariski", Q51, C51_1, C51_2], 0),
    (["example", "5.1"], 0),
    (["table", "--verify"], 60),
], ids=["symbol_5.1_conic1", "zariski_5.1", "example_5.1", "table_verify"])
def test_mw_structures_built_only_where_counted(argv, expected):
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", COUNT_MW, *argv, "--format", "records"],
        cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert int(proc.stderr.splitlines()[-1]) == expected


def test_python_dash_m_runs_the_command_line():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "mwq", "example", "5.2", "--format", "records"],
        cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == (RECORDS_DIR / "example_5.2.jsonl").read_text(encoding="utf-8")


# The command line imports no class-generation machinery: `dataclasses` pulls in
# `inspect`, and `traceback` loads only where an unexpected error is reported.
# Nor does it read argv with `argparse`, which loads `gettext` and `locale`.
NO_MACHINERY = ("import sys\n"
                "from mwq.cli import main\n"
                "rcs = [main(argv + ['--format', 'records'])\n"
                "       for argv in (['lattice', 'enumerate', 'A2', '2'], ['example', '5.2'])]\n"
                "machinery = {'dataclasses', 'inspect', 'traceback',\n"
                "             'argparse', 'gettext', 'locale'}\n"
                "loaded = sorted(machinery & set(sys.modules))\n"
                "print(rcs, loaded, file=sys.stderr)")


def test_commands_load_no_class_generation_machinery():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", NO_MACHINERY], cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "[0, 0] []"


# ---------------------------------------------------------------------------
# value semantics of the records and classes: each factory builds a fresh
# instance from the same inputs; `field` is one of its attributes
# ---------------------------------------------------------------------------


def _values():
    from mwq import lattice, quartic, surface
    from mwq.report import ResultItem

    gram = ((2, -1), (-1, 2))
    curve = surface.WeierstrassCurve.from_cubic(parse_curve_rhs(Q52))
    ctx = surface.height_context(curve)
    row = mwtable.builtin_table()[0]
    tang_args = (True, ((UniPoly.of(1, 0, 1), 4),), UniPoly.of(1, 1), "")
    ctype_args = (("A1", "A1"), "s", (2, 2, 2, 2))
    tang, ctype = quartic.TangencyReport(*tang_args), quartic.CombinatorialType(*ctype_args)
    return {  # name: (factory, field, semantics)
        "SectionPoint": (lambda: parse_section("(t, t^2)"), "x", "value"),
        "WeierstrassCurve": (lambda: surface.WeierstrassCurve.from_cubic(parse_curve_rhs(Q52)),
                             "c1", "value"),
        "PlaceData": (lambda: surface.kodaira_type_at(curve, UniPoly.of(0, 1)), "n", "identity"),
        "HeightContext": (lambda: surface.HeightContext(curve, ctx.places), "places", "value"),
        "GramLattice": (lambda: lattice.GramLattice(gram), "gram", "value"),
        "MWStructure": (lambda: lattice.MWStructure(lattice.GramLattice(gram), (3,),
                                                    lattice.GramLattice(gram)), "torsion", "value"),
        "TableRow": (lambda: mwtable.TableRow(1, ("A6",), "A6", "s", ("A1", "A6"), "<1/14>",
                                              0, 0, ()), "etc_expected", "value"),
        "PreparedQuartic": (lambda: quartic.PreparedQuartic(parse_curve_rhs(Q52)), "f", "value"),
        "Conic": (lambda: quartic.Conic(parse_conic_rhs(C52_1)), "q", "value"),
        "TangencyReport": (lambda: quartic.TangencyReport(*tang_args), "note", "value"),
        "SingularConfiguration": (lambda: quartic.SingularConfiguration(("A3",), "s", row, ctx),
                                  "row", "value"),
        "SplittingCertificate": (lambda: quartic.SplittingCertificate(
            UniPoly.of(1), UniPoly.of(0, 1), UniPoly.of(2, 0, 1)), "a2", "value"),
        "SymbolResult": (lambda: quartic.SymbolResult(1, quartic.ROUTE_GENUS0, tang), "value",
                         "value"),
        "CombinatorialType": (lambda: quartic.CombinatorialType(*ctype_args), "contact_multiset",
                              "value"),
        "ZariskiVerdict": (lambda: quartic.ZariskiVerdict(quartic.VERDICT_INCONCLUSIVE, ctype,
                                                          ctype, 1, 1), "symbol2", "value"),
        "FeasibilityReport": (lambda: quartic.FeasibilityReport(
            quartic.SymbolResult(-1, quartic.ROUTE_GENUS_GE2, tang), ("A3",),
            quartic.INFEASIBLE_ODD_PRIMES, "detail"), "verdict", "value"),
        "ResultItem": (lambda: ResultItem("count", 6, ("enumerate_by_norm",), True), "ok", "value"),
        "RunReport": (lambda: RunReport("lattice roots", {"lattice": "A2"}), "status", "mutable"),
    }


VALUES = _values()


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_are_frozen_and_compare_by_value(name):
    make, field, semantics = VALUES[name]
    a, b = make(), make()
    assert a is not b
    if semantics == "mutable":  # RunReport: assignable, equal by value, unhashable
        setattr(a, field, getattr(b, field))
        assert a == b and type(a).__hash__ is None
        return
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    if semantics == "identity":  # PlaceData compares by identity
        assert a == a and a != b and hash(a) == hash(a)
    else:
        assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("name, touch", [
    ("GramLattice", lambda lat: object.__setattr__(lat, "bands", ())),
    ("TableRow", lambda row: row.mw),
    ("WeierstrassCurve", lambda curve: curve.cubic_u),
    ("PreparedQuartic", lambda q: q.configuration),
])
def test_equality_ignores_derived_and_cached_attributes(name, touch):
    make = VALUES[name][0]
    a, b = make(), make()
    touch(b)
    assert a == b and hash(a) == hash(b)
