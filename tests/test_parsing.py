"""The text grammar: one fault per input, pinned with its error class, message
and position; and the printers round-trip exactly through the parsers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from mwq.poly import BiPoly, RatFn, UniPoly

NOT_POLYNOMIAL = "expression must be polynomial (no division by t or u)"
NOT_IN_T = "expression must not involve u"

# (parser, input, error class, message, ParseError position or None)
SINGLE_FAULTS = [
    (parse_bipoly, "t + 1/(t - t)", ParseError, "division by zero", 5),
    (parse_ratfn, "1/(2*t - 2*t)", ParseError, "division by zero", 1),
    (parse_bipoly, "u + (t - t)^-2", ParseError, "zero to a negative power", 13),
    (parse_ratfn, "(t - t)^-1", ParseError, "zero to a negative power", 9),
    (parse_bipoly, "t^t", ParseError, "exponent must be an integer", 2),
    (parse_bipoly, "t^(2)", ParseError, "exponent must be an integer", 2),
    (parse_ratfn, "t^-t", ParseError, "exponent must be an integer", 3),
    (parse_unipoly, "t + x", ParseError, "unknown name 'x'", 4),
    (parse_ratfn, "1/x", ParseError, "unknown name 'x'", 2),
    (parse_bipoly, "(t + u", ParseError, "expected ')'", 6),
    (parse_ratfn, "(t + 1 t", ParseError, "expected ')'", 7),
    (parse_bipoly, "t + 1)", ParseError, "trailing input ')'", 5),
    (parse_ratfn, "1/t 2", ParseError, "trailing input '2'", 4),
    (parse_bipoly, "t + * 2", ParseError, "unexpected token '*'", 4),
    (parse_bipoly, "t +", ParseError, "unexpected token ''", 3),
    (parse_ratfn, "1/)", ParseError, "unexpected token ')'", 2),
    (parse_unipoly, "t^2 + $", ParseError, "unexpected character '$'", 6),
    (parse_bipoly, "1/t + u", InputFormatError, NOT_POLYNOMIAL, None),
    (parse_bipoly, "u/(2*u)", InputFormatError, NOT_POLYNOMIAL, None),
    (parse_curve_rhs, "y^2 = u^3 + t/u", InputFormatError, NOT_POLYNOMIAL, None),
    (parse_conic_rhs, "u = t^-1", InputFormatError, NOT_POLYNOMIAL, None),
    (parse_conic_rhs, "u = t + u", InputFormatError, NOT_IN_T, None),
    (parse_section, "(t, t + x)", ParseError, "unknown name 'x'", 8),
    (parse_section, "(t + x, t)", ParseError, "unknown name 'x'", 5),
    (parse_section, "  (t + x, t)", ParseError, "unknown name 'x'", 7),
    (parse_section, "(u, t)", InputFormatError, NOT_IN_T, None),
    (parse_section, "(t, 1/t + u)", InputFormatError, NOT_IN_T, None),
    (parse_ratfn, "u/u", InputFormatError, NOT_IN_T, None),
    # longer than Python converts by default (4300 digits): reported at the literal
    (parse_bipoly, "u + " + "7" * 5000, ParseError, "integer literal of 5000 digits is too long", 4),
    (parse_bipoly, "t^" + "9" * 5000, ParseError, "integer literal of 5000 digits is too long", 2),
]


def _case_id(case) -> str:
    text = case[1] if len(case[1]) <= 40 else f"{case[1][:8]}...({len(case[1])} chars)"
    return f"{case[0].__name__}:{text}"


@pytest.mark.parametrize(
    "parse, text, error, message, pos",
    SINGLE_FAULTS,
    ids=[_case_id(case) for case in SINGLE_FAULTS],
)
def test_single_fault_is_reported_with_its_message_and_position(parse, text, error, message, pos):
    with pytest.raises(error) as err:
        parse(text)
    assert type(err.value) is error
    if pos is None:
        assert str(err.value) == message
    else:
        assert str(err.value) == f"{message} (at position {pos})"
        assert err.value.pos == pos


def test_division_rule():
    # curves and conics divide by nonzero constants only; section coordinates
    # divide by any nonzero polynomial in t
    assert parse_bipoly("(6*t*u + 4)/(2*3) - 2^-1") == BiPoly(
        [UniPoly.of(Fraction(1, 6)), UniPoly.of(0, 1)]
    )
    assert parse_conic_rhs("u = t/(3 - 1)") == UniPoly.of(0, Fraction(1, 2))
    assert parse_ratfn("1/t + 1") == RatFn(UniPoly.of(1, 1), UniPoly.of(0, 1))
    assert parse_ratfn("(t^2 - 1)/(t - 1)^2") == RatFn(UniPoly.of(1, 1), UniPoly.of(-1, 1))
    assert parse_ratfn("(2*t)^-2") == RatFn(UniPoly.const(1), UniPoly.of(0, 0, 4))


# ---------------------------------------------------------------------------
# round trips: parse(print(x)) == x
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.integers(-50, 50),
    st.integers(-(10 ** 30), 10 ** 30),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(Fraction, st.integers(-(10 ** 25), 10 ** 25), st.integers(1, 10 ** 25)),
)
_unipolys = st.lists(st.one_of(st.just(0), _scalars), max_size=6).map(UniPoly)
_bipolys = st.lists(_unipolys, max_size=4).map(BiPoly)
_ratfns = st.builds(RatFn, _unipolys, _unipolys.filter(lambda p: not p.is_zero))


@settings(max_examples=150, deadline=None)
@given(p=_unipolys)
def test_unipoly_round_trip(p):
    assert parse_unipoly(poly_text(p)) == p


@settings(max_examples=150, deadline=None)
@given(f=_bipolys)
def test_bipoly_round_trip(f):
    assert parse_bipoly(bipoly_text(f)) == f


@settings(max_examples=150, deadline=None)
@given(r=_ratfns)
def test_ratfn_round_trip(r):
    assert parse_ratfn(ratfn_text(r)) == r
