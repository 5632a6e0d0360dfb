"""The text grammar: one fault per input, pinned with its error class, message
and position; and the printers round-trip exactly through the parsers."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwq.parsing import (
    DEPTH_CAP,
    POWER_CAP,
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
from mwq.parsing import _scan, _tokenize
from mwq.poly import T, UNIPOLY_ZERO, BiPoly, RatFn, UniPoly

NOT_POLYNOMIAL = "expression must be polynomial (no division by t or u)"
NOT_IN_T = "expression must not involve u"
PRODUCT_CAP = f"product exceeds the cap: degree at most {POWER_CAP}"
QUOTIENT_CAP = f"quotient exceeds the cap: degree at most {POWER_CAP}"
SUM_CAP = f"sum exceeds the cap: degree at most {POWER_CAP}"
DIFFERENCE_CAP = f"difference exceeds the cap: degree at most {POWER_CAP}"
POWER = f"power exceeds the cap: exponent and degree at most {POWER_CAP}"
DEPTH = f"nesting exceeds the cap: depth at most {DEPTH_CAP}"
CURVE_SHAPE = "curve must have the form `y^2 = f(t, u)`"
CONIC_SHAPE = "conic must have the form `u = q(t)`"
SECTION_SHAPE = "section must be `O` or `(x, y)`"

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
    # positions are within the whole text, also after `u =` and `y^2 =`
    (parse_conic_rhs, "u = t + x", ParseError, "unknown name 'x'", 8),
    (parse_curve_rhs, "y^2 = u^3 + x", ParseError, "unknown name 'x'", 12),
    (parse_section, "(u, t)", InputFormatError, NOT_IN_T, None),
    (parse_section, "(t, 1/t + u)", InputFormatError, NOT_IN_T, None),
    (parse_ratfn, "u/u", InputFormatError, NOT_IN_T, None),
    # longer than Python converts by default (4300 digits): reported at the literal
    (parse_bipoly, "u + " + "7" * 5000, ParseError, "integer literal of 5000 digits is too long", 4),
    (parse_bipoly, "t^" + "9" * 5000, ParseError, "integer literal of 5000 digits is too long", 2),
    # the degree in t and in u of every product, and in a section coordinate of
    # every quotient, is bounded at its operator, before it is expanded
    (parse_bipoly, "(t^60)*(t^60)", ParseError, PRODUCT_CAP, 6),
    (parse_curve_rhs, "u^50*u^51", ParseError, PRODUCT_CAP, 4),
    (parse_bipoly, "(t^60*t^60)/t", ParseError, PRODUCT_CAP, 5),
    (parse_ratfn, "t^60*t^41", ParseError, PRODUCT_CAP, 4),
    (parse_ratfn, "1/t^60/t^41", ParseError, QUOTIENT_CAP, 6),
    (parse_section, "(t, (t^60)/(t^-60))", ParseError, QUOTIENT_CAP, 10),
    # a sum of rational functions multiplies their denominators
    (parse_ratfn, "1/t^60 - 1/(t + 1)^41", ParseError, DIFFERENCE_CAP, 7),
    (parse_section, "(t, 1/t^60 + 1/(t + 1)^41)", ParseError, SUM_CAP, 11),
    # a curve rejects a non-constant divisor before any degree is read
    (parse_bipoly, "t^60/t^60", InputFormatError, NOT_POLYNOMIAL, None),
    # parentheses and unary minus nest at most DEPTH_CAP deep
    (parse_bipoly, "(" * 101 + "t" + ")" * 101, ParseError, DEPTH, 100),
    (parse_ratfn, "-" * 101 + "t", ParseError, DEPTH, 100),
    (parse_conic_rhs, "u = " + "-(" * 51 + "t" + ")" * 51, ParseError, DEPTH, 104),
    # frames are tokens of the same pass: a missing one refuses the shape
    (parse_curve_rhs, "2*y^2 = u^3", InputFormatError, CURVE_SHAPE, None),
    (parse_conic_rhs, "t = u", InputFormatError, CONIC_SHAPE, None),
    (parse_section, "(t, t, t)", InputFormatError, SECTION_SHAPE, None),
    (parse_section, "(t)", InputFormatError, "section must have two coordinates", None),
    # of two faults, the first in reading order is reported: a conic's `u`,
    # a division by zero and a character outside the grammar alike
    (parse_conic_rhs, "u = u + 1/(t-t)", InputFormatError, NOT_IN_T, None),
    (parse_unipoly, "t + u^2 + $", InputFormatError, NOT_IN_T, None),
    (parse_bipoly, "1/(t-t) + $", ParseError, "division by zero", 1),
    (parse_curve_rhs, "y^2 = u^3 + 1/(t - t) + $", ParseError, "division by zero", 13),
    (parse_section, "(1/(t-t), $)", ParseError, "division by zero", 2),
    (parse_curve_rhs, "$^2 = u", ParseError, "unexpected character '$'", 0),
    # a term's leading run of simple factors is folded into one monomial, and
    # stops before whatever it would refuse: each fault is still raised at its
    # own token, by the same check, as when the factors are taken one by one
    (parse_bipoly, "t^60*t^41", ParseError, PRODUCT_CAP, 4),
    (parse_bipoly, "t^100*t", ParseError, PRODUCT_CAP, 5),
    (parse_curve_rhs, "u^50*t*u^51", ParseError, PRODUCT_CAP, 6),
    (parse_bipoly, "2*t^101", ParseError, POWER, 4),
    (parse_bipoly, "2^101*t", ParseError, POWER, 2),
    (parse_bipoly, "3/0*t", ParseError, "division by zero", 1),
    (parse_bipoly, "t*u/0", ParseError, "division by zero", 3),
    (parse_conic_rhs, "u*t^-1", InputFormatError, NOT_IN_T, None),
    (parse_bipoly, "u*t^-1", InputFormatError, NOT_POLYNOMIAL, None),
    (parse_bipoly, "t*3/t", InputFormatError, NOT_POLYNOMIAL, None),
    (parse_bipoly, "2*" + "7" * 5000, ParseError, "integer literal of 5000 digits is too long", 2),
    (parse_bipoly, "2*t^" + "9" * 5000, ParseError, "integer literal of 5000 digits is too long", 4),
    # digits are ASCII: a superscript or a non-ASCII decimal digit is a
    # character outside the grammar, refused where it stands
    (parse_bipoly, "t^\u00b2", ParseError, "unexpected character '\u00b2'", 2),
    (parse_bipoly, "t^\u0662", ParseError, "unexpected character '\u0662'", 2),
    (parse_bipoly, "\u0663*t", ParseError, "unexpected character '\u0663'", 0),
    (parse_curve_rhs, "y^2 = u^3 + t^\u00b2", ParseError, "unexpected character '\u00b2'", 14),
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


@pytest.mark.parametrize("text, value", [
    ("t/2^2", T * Fraction(1, 4)),  # a divisor raised to a power ends the run
    ("0^0*t", T),
    ("0*t^60*t^60", UNIPOLY_ZERO),  # a zero product caps no degree
    ("t^60*0*t^60", UNIPOLY_ZERO),
    ("6/4*t/3", T * Fraction(1, 2)),
    ("2/-1*t", -2 * T),  # a signed divisor ends the run
    ("3*t*t^2/6*t^0", T ** 3 * Fraction(1, 2)),
    ("(2*t)*(t/2)", T ** 2),
])
def test_folded_runs_read_as_their_products(text, value):
    assert parse_unipoly(text) == value
    assert parse_bipoly(text) == BiPoly([value])


def test_degree_budget_is_per_variable_and_read_on_the_operands():
    # degree 60 in t and 60 in u: each within the cap
    assert parse_bipoly("u^60*t^60") == BiPoly([UNIPOLY_ZERO] * 60 + [UniPoly.of(*[0] * 60, 1)])
    # t^60 / t^40 is t^20: neither t^60 nor t^40 exceeds the cap
    assert parse_ratfn("t^60/t^40") == RatFn(UniPoly.of(*[0] * 20, 1))
    assert parse_ratfn("(t^50/(t + 1)^50)*((t + 1)^50/t^50)") == RatFn(UniPoly.const(1))
    # the bound of a sum is the degree of t^60 * t^40, just within the cap
    assert parse_ratfn("1/t^60 + 1/t^40") == RatFn(T ** 20 + 1, T ** 60)


def test_nesting_up_to_the_cap_is_read():
    assert parse_bipoly("(" * DEPTH_CAP + "t" + ")" * DEPTH_CAP) == BiPoly([T])
    assert parse_ratfn("-" * DEPTH_CAP + "t") == RatFn(T)


# ---------------------------------------------------------------------------
# the sparse evaluator against sympy, and hostile input
# ---------------------------------------------------------------------------

_LEAVES = st.one_of(st.sampled_from(["t", "u"]), st.integers(0, 30).map(str))


@st.composite
def _expressions(draw, depth: int = 4) -> str:
    """An expression tree in the grammar.  Each level at most triples the
    degree, so a depth-4 tree stays within the cap (3^4 <= 100)."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(_LEAVES)
    op = draw(st.sampled_from(["+", "-", "*", "neg", "^", "/"]))
    a = draw(_expressions(depth - 1))
    if op == "neg":
        return f"-({a})"
    if op == "^":
        return f"({a})^{draw(st.integers(0, 3))}"
    if op == "/":
        return f"({a})/{draw(st.sampled_from([1, 2, 3, 7, -1, -4, 12]))}"
    return f"({a}) {op} ({draw(_expressions(depth - 1))})"


def _assert_parse_bipoly_matches_sympy(text: str):
    import sympy

    t, u = sympy.symbols("t u")
    expected = sympy.Poly(
        sympy.expand(sympy.sympify(text.replace("^", "**"), locals={"t": t, "u": u})), u, t
    )
    want = {
        (du, dt): Fraction(int(c.p), int(c.q))
        for (du, dt), c in zip(expected.monoms(), expected.coeffs()) if c != 0
    }
    f = parse_bipoly(text)
    got = {
        (du, dt): c
        for du, row in enumerate(f.coeffs) for dt, c in enumerate(row.coeffs) if c != 0
    }
    assert got == want


@settings(max_examples=120, deadline=None)
@given(text=_expressions())
def test_parse_bipoly_matches_sympy_expand(text):
    _assert_parse_bipoly_matches_sympy(text)


# a simple factor: a numeral or a variable, each maybe raised to a numeral power
_SIMPLE = st.one_of(
    st.integers(0, 10 ** 12).map(str),
    st.sampled_from(["t", "u"]),
    st.builds("{}^{}".format, st.sampled_from(["t", "u", "0", "1", "2", "7"]), st.integers(0, 9)),
)


@st.composite
def _monomial_runs(draw) -> str:
    """An expanded sum: each term a run of simple factors joined by `*`, or
    by `/` and a nonzero numeral, as a printed polynomial is."""
    terms = []
    for _ in range(draw(st.integers(1, 8))):
        run = draw(_SIMPLE)
        for _ in range(draw(st.integers(0, 4))):
            if draw(st.integers(0, 3)):
                run += "*" + draw(_SIMPLE)
            else:
                run += "/" + str(draw(st.integers(1, 999)))
        terms.append(run)
    signs = draw(st.lists(st.sampled_from([" + ", " - ", "+", "-"]),
                          min_size=len(terms), max_size=len(terms)))
    text = "".join(sign + term for sign, term in zip(signs, terms))
    return text.lstrip(" +")


@settings(max_examples=150, deadline=None)
@given(text=_monomial_runs())
def test_parse_bipoly_of_monomial_runs_matches_sympy_expand(text):
    _assert_parse_bipoly_matches_sympy(text)


# the characters of the grammar, and `=` and space
_ALPHABET = "0123456789tu+-*/^()= "


@st.composite
def _hostile(draw) -> str:
    """Text over the alphabet: at random, or a valid expression with up to
    three random splices, so that faults also come late in the input."""
    if draw(st.booleans()):
        return draw(st.text(alphabet=_ALPHABET, max_size=30))
    text = draw(_expressions(depth=3))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))
        text = text[:i] + draw(st.text(alphabet=_ALPHABET, max_size=3)) + text[i + cut:]
    return text


@settings(max_examples=400, deadline=None)
@given(text=_hostile())
def test_any_text_over_the_alphabet_is_parsed_or_refused_as_input(text):
    cases = [(parse_curve_rhs, text), (parse_conic_rhs, text), (parse_section, text),
             (parse_section, f"({text}, {text})")]
    for parse, arg in cases:
        try:
            parse(arg)
        except (ParseError, InputFormatError):
            pass


# ---------------------------------------------------------------------------
# the tokenizer against a character-by-character reference
# ---------------------------------------------------------------------------


def _reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, token, position) for each token, then ("end", "", len(text))."""
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "0123456789":  # ASCII only: `str.isdigit` takes '\u00b2' and '\u0663' too
            j = i
            while j < len(text) and text[j] in "0123456789":
                j += 1
            toks.append(("num", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalnum():
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
        elif text[i : i + 2] == "**":
            toks.append(("op", "^", i))
            i += 2
        elif ch in "+-*/^(),=":
            toks.append(("op", ch, i))
            i += 1
        else:
            toks.append(("bad", ch, i))
            i += 1
    toks.append(("end", "", len(text)))
    return toks


# the grammar's characters and the frames' names, `**`, and characters beside
# the grammar: an underscore, a sign, a letter, a superscript, a vulgar
# fraction, an Arabic-Indic digit and two spaces that are not ASCII
_PIECES = list("0123456789tuyO+-*/^(),= ") + ["**", "_", "$", "\u00e9", "\u00b2", "\u00bd",
                                               "\u0663", "\u00a0", "\u2003"]
_drawn_texts = st.lists(st.sampled_from(_PIECES), max_size=25).map("".join)

# every message a ParseError can carry; a quoted token is the token at the position
_PARSE_MESSAGES = re.compile(
    r"division by zero|zero to a negative power|exponent must be an integer|expected '\)'"
    r"|integer literal of [0-9]+ digits is too long"
    r"|(sum|difference|product|quotient) exceeds the cap: degree at most [0-9]+"
    r"|power exceeds the cap: exponent and degree at most [0-9]+"
    r"|nesting exceeds the cap: depth at most [0-9]+"
    r"|(?P<kind>unknown name|trailing input|unexpected token|unexpected character) (?P<tok>'.*')"
)
_INPUT_FORMAT_MESSAGES = {NOT_POLYNOMIAL, NOT_IN_T, SECTION_SHAPE,
                          "section must have two coordinates"}


@settings(max_examples=400, deadline=None)
@given(text=_drawn_texts)
def test_tokenizer_matches_the_character_by_character_reference(text):
    want = _reference_tokenize(text)
    assert _tokenize(text) == [tok for _kind, tok, _pos in want]
    assert [pos for _tok, pos in _scan(text)] + [len(text)] == [pos for *_, pos in want]


@settings(max_examples=400, deadline=None)
@given(text=_drawn_texts)
def test_first_fault_is_reported_in_the_error_tables_format(text):
    toks = _reference_tokenize(text)
    at = {pos: (kind, tok) for kind, tok, pos in toks}
    first_bad = next((pos for kind, _tok, pos in toks if kind == "bad"), len(text) + 1)
    for parse in (parse_bipoly, parse_ratfn, parse_section):
        try:
            parse(text)
        except ParseError as err:
            assert type(err) is ParseError
            assert str(err) == f"{err.message} (at position {err.pos})"
            m = _PARSE_MESSAGES.fullmatch(err.message)
            assert m is not None, err.message
            # a fault is reported where its token starts, no later than the
            # first character outside the grammar, and that one as itself
            assert err.pos in at and err.pos <= first_bad
            assert (m["kind"] == "unexpected character") == (err.pos == first_bad)
            if m["kind"] is not None:
                assert m["tok"] == repr(at[err.pos][1])
        except InputFormatError as err:
            assert type(err) is InputFormatError
            assert str(err) in _INPUT_FORMAT_MESSAGES


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


@pytest.mark.parametrize("text", [
    "(t+1)^50/(t+2)^50+(t+5)^50/(t+3)^50",
    "(t+1)^50/(t+2)^50+1/(t+3)^50",
])
def test_sums_of_high_powers_reduce_as_sympy_cancels(text):
    """The reduced numerator and monic denominator are sympy's `cancel`
    of the same sum, divided by its denominator's leading coefficient."""
    import sympy

    t = sympy.Symbol("t")
    num, den = sympy.fraction(sympy.cancel(sympy.sympify(text.replace("^", "**"), locals={"t": t})))
    num, den = (sympy.Poly(p, t).all_coeffs()[::-1] for p in (num, den))
    lead = Fraction(int(den[-1].p), int(den[-1].q))
    expected = [UniPoly([Fraction(int(c.p), int(c.q)) / lead for c in cs]) for cs in (num, den)]
    got = parse_ratfn(text)
    assert [got.num, got.den] == expected
