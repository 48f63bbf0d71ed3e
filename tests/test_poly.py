import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apolar import (
    ContextMismatchError,
    DualForm,
    ParseError,
    PolyError,
    Polynomial,
    VarContext,
    apply_operator,
    dehomogenize,
    evaluate_decomposition,
    format_polynomial,
    monomial_basis,
    parse_dual_form,
    parse_polynomial,
    parse_polynomial_list,
    substitute,
)
from apolar.catalog import build_determinant, grid_context
from apolar.poly import _assemble, _Parser, _Scanner
import math

from oracles import dense_format_polynomial, naive_homogenize

XY = VarContext.of("x", "y")
XYZ = VarContext.of("x", "y", "z")


def p(text, ctx=None):
    return parse_polynomial(text, ctx)


# ----------------------------------------------------------------------
# parsing


def test_parse_det2():
    text = "x[1,1]*x[2,2] - x[1,2]*x[2,1]"
    # with no context given, the variables are numbered as they appear
    assert p(text).context.names == ("x[1,1]", "x[2,2]", "x[1,2]", "x[2,1]")
    det2 = build_determinant(2)
    assert p(text, det2.context) == det2


def test_parse_zero():
    f = p("0")
    assert f.is_zero
    assert f.terms == {}


def test_parse_rational_coefficients():
    f = p("1/2*x^2 - 3*x*y + y", XY)
    assert f.coefficient((2, 0)) == Fraction(1, 2)
    assert f.coefficient((1, 1)) == -3
    assert f.coefficient((0, 1)) == 1


def test_parse_leading_sign():
    assert p("-x + y", XY) == p("y - x", XY)


def test_parse_repeated_variable_multiplies():
    assert p("x*x*x", XY) == p("x^3", XY)


def test_parse_zero_exponent_rejected():
    with pytest.raises(ParseError):
        p("x^0")


def test_parse_negative_exponent_rejected():
    with pytest.raises(ParseError):
        p("x^-2")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        p("x + \n  y ^ 0")
    assert err.value.line == 2
    assert "positive" in str(err.value)


def test_parse_unknown_variable_with_context():
    with pytest.raises(ParseError) as err:
        p("x + w", XY)
    assert "'w'" in str(err.value)


def test_parse_zero_denominator_rejected():
    with pytest.raises(ParseError):
        p("1/0*x", XY)


def test_parse_garbage_rejected():
    for bad in ("", "x +", "2 2", "x*", "x[", "x[1,]", "(x)"):
        with pytest.raises(ParseError):
            p(bad, XY)


def test_parse_list_shares_inferred_context():
    f, g = parse_polynomial_list(["y^2", "x*y"])
    assert f.context == g.context
    assert f.context.names == ("y", "x")


def test_parse_list_refuses_terms_times_variables_over_max_size():
    # 3 terms over the shared context (y, x, z)
    texts = ["y^2 + x*y", "z"]
    assert len(parse_polynomial_list(texts, max_size=9)) == 2
    with pytest.raises(ValueError, match="^3 terms times 3 variables are over the size limit of 8$"):
        parse_polynomial_list(texts, max_size=8)


def test_parse_dual_form_maps_to_primal():
    ctx = grid_context(2, 2)
    dl = parse_dual_form("d[1,2]", ctx)
    assert isinstance(dl, DualForm)
    assert dl.coefficient((0, 1, 0, 0)) == 1
    assert str(dl) == "d[1,2]"


def test_parse_dual_underscore_names():
    ctx = VarContext.of("y[1]", "z")
    dl = parse_dual_form("2*d_y[1] - d_z", ctx)
    assert dl.coefficient((1, 0)) == 2
    assert dl.coefficient((0, 1)) == -1
    assert str(dl) == "2*d_y[1] - d_z"


def test_parse_dual_rejects_non_dual_names():
    ctx = VarContext.of("x")
    with pytest.raises(ParseError):
        parse_dual_form("e[1]", ctx)


GRID = VarContext.of("x[1,1]", "x[1,2]", "y[1]")

# (text, context or None, dual?, message after the position, line, column)
PARSE_ERRORS = [
    ("x + (y)", None, False, "unexpected character '('", 1, 5),
    ("x + *y", None, False, "expected a term, got '*'", 1, 5),
    ("x +", None, False, "expected a term, got 'end of input'", 1, 4),
    ("", None, False, "expected a term, got 'end of input'", 1, 1),
    ("x y", None, False, "expected '+', '-' or end of input, got 'y'", 1, 3),
    ("1/x", None, False, "expected a positive integer denominator", 1, 3),
    ("1/", None, False, "expected a positive integer denominator", 1, 3),
    ("3/0*x", None, False, "denominator must be a positive integer", 1, 3),
    ("x^-2", None, False, "exponent must be a positive integer", 1, 3),
    ("x^", None, False, "expected an exponent, got 'end of input'", 1, 3),
    ("x^y", None, False, "expected an exponent, got 'y'", 1, 3),
    ("x^0", None, False, "exponent must be a positive integer, got 0", 1, 3),
    ("2*3", None, False, "expected a variable, got '3'", 1, 3),
    ("x*", None, False, "expected a variable, got 'end of input'", 1, 3),
    ("x[", None, False, "expected an index, got 'end of input'", 1, 3),
    ("x[1,]", None, False, "expected an index, got ']'", 1, 5),
    ("x[1 2]", None, False, "expected ']', got '2'", 1, 5),
    ("x[1", None, False, "expected ']', got 'end of input'", 1, 4),
    (
        "e[1]", GRID, True,
        "dual variable must be named 'd' or 'd_<name>', got 'e[1]'", 1, 1,
    ),
    (
        "dd[1]", GRID, True,
        "dual variable must be named 'd' or 'd_<name>', got 'dd[1]'", 1, 1,
    ),
    (
        "d_[1]", GRID, True,
        "dual variable must be named 'd' or 'd_<name>', got 'd_[1]'", 1, 1,
    ),
    (
        "d[1,1] + e[01, 2]", GRID, True,
        "dual variable must be named 'd' or 'd_<name>', got 'e[1,2]'", 1, 10,
    ),
    ("d[1,1] + d_2[1]", GRID, True, "invalid variable name '2'", 1, 10),
    ("d_x[2]", GRID, True, "unknown variable 'd[2]'", 1, 1),
    ("x + w", XY, False, "unknown variable 'w'", 1, 5),
    ("d[1,1] + d[2,2]", GRID, True, "unknown variable 'd[2,2]'", 1, 10),
    ("d_y[2]", GRID, True, "unknown variable 'd_y[2]'", 1, 1),
    ("x +\n  y ^ 0", None, False, "exponent must be a positive integer, got 0", 2, 7),
    ("x +\n  y z", None, False, "expected '+', '-' or end of input, got 'z'", 2, 5),
    ("x +\n", None, False, "expected a term, got 'end of input'", 2, 1),
]


@pytest.mark.parametrize(
    "text, ctx, dual, message, line, col", PARSE_ERRORS, ids=[c[0] for c in PARSE_ERRORS]
)
def test_parse_error_message_and_position(text, ctx, dual, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_dual_form(text, ctx) if dual else p(text, ctx)
    assert str(err.value) == f"line {line}, column {col}: {message}"
    assert (err.value.line, err.value.col) == (line, col)


def test_overlong_numeral_is_a_parse_error_at_its_position():
    digits = "7" * 5000
    with pytest.raises(ParseError) as err:
        p(f"x +\n  {digits}*x")
    limit = sys.get_int_max_str_digits()
    assert str(err.value) == (
        f"line 2, column 3: integer too long: 5000 digits (limit {limit})"
    )
    assert (err.value.line, err.value.col) == (2, 3)


# grammar characters mixed with any Unicode character
_GRAMMAR_CHARS = st.sampled_from(list("xyd_[],+-*/^0123456789 \n"))


@settings(max_examples=300, deadline=None)
@given(st.text(st.one_of(_GRAMMAR_CHARS, st.characters()), max_size=20))
@example("x^²")
@example("é*x")
@example("1/٣*x^٢")
@example("d_é")
@example("9" * 5000 + "*x")
def test_malformed_text_raises_only_parse_error(text):
    for parse in (p, lambda s: p(s, GRID), lambda s: parse_dual_form(s, GRID)):
        try:
            parse(text)
        except ParseError:
            pass


# ----------------------------------------------------------------------
# the term scanner against the token parser


def token_route(text, ctx, dual):
    """What the token parser alone makes of ``text``: the polynomial,
    with the context inferred in order of first appearance when ctx is
    None, or the ParseError as (message, line, column)."""
    try:
        raw = _Parser(text, dual, ctx).parse_terms()
    except ParseError as exc:
        return str(exc), exc.line, exc.col
    factors = {f: f for _, fs in raw for f in fs}
    if ctx is None:
        ctx = VarContext(tuple(dict.fromkeys(name for name, _ in factors.values())))
    return _assemble(DualForm if dual else Polynomial, [raw], ctx, factors)[0]


def public_route(text, ctx, dual):
    try:
        return parse_dual_form(text, ctx) if dual else p(text, ctx)
    except ParseError as exc:
        return str(exc), exc.line, exc.col


_BLANK = st.sampled_from(["", "", "", " ", "  ", "\t", "\n", "\xa0", "\u2028", "\x1c"])
# mostly small numerals, so that most drawn texts are well formed
_NUMERAL = st.sampled_from(["1"] * 6 + ["2", "01", "0", "٣", "١", "12", "9" * 5000])
_BASE = st.sampled_from(["x", "y", "d", "d_y", "d_x", "d_1", "z1", "_"])
# spellings of the variables of GRID, and of their duals
_GRID_VARS = (
    st.sampled_from(["x[1,1]", "x [ 01 , ١ ]", "x[1,2]", "y[1]", "y[01]"]),
    st.sampled_from(["d[1,1]", "d [ 1 , 02 ]", "d_y[1]", "d_y[ ١ ]", "d_x[1,2]"]),
)


@st.composite
def grammar_texts(draw):
    """Texts built from the grammar, with blanks between tokens.  Most
    names spell a variable of GRID, all primal or all dual; the others, a
    numeral of 0 or of 5000 digits, get some texts refused."""

    def blank():
        return draw(_BLANK)

    grid_var = _GRID_VARS[draw(st.integers(0, 1))]

    def factor():
        if draw(st.integers(0, 3)):
            out = draw(grid_var)
        else:
            out = draw(_BASE)
            indices = draw(st.lists(_NUMERAL, max_size=3))
            if indices:
                sep = blank() + "," + blank()
                out += blank() + "[" + blank() + sep.join(indices) + blank() + "]"
        if draw(st.booleans()):
            out += blank() + "^" + blank() + draw(_NUMERAL)
        return out

    def term():
        if draw(st.booleans()):
            head = draw(_NUMERAL)
            if draw(st.booleans()):
                head += blank() + "/" + blank() + draw(_NUMERAL)
            tail = [factor() for _ in range(draw(st.integers(0, 3)))]
        else:
            head, tail = factor(), [factor() for _ in range(draw(st.integers(0, 2)))]
        return head + "".join(blank() + "*" + blank() + f for f in tail)

    text = blank() + draw(st.sampled_from(["", "+", "-"])) + blank() + term()
    for _ in range(draw(st.integers(0, 3))):
        text += blank() + draw(st.sampled_from(["+", "-"])) + blank() + term()
    return text + blank()


# pieces of the grammar and of the ways to break it, joined at random
_PIECES = st.sampled_from(
    ["x", "y", "d", "d_y", "x[01]", "x[1,1]", "d[1,1]", "y[1]", "1/٣*x^٢", "^0",
     "3/0", "9" * 5000, "^", "*", "/", "+", "-", "[", "]", ",", "1", " ", "\n", "é"]
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(grammar_texts(), st.lists(_PIECES, max_size=8).map("".join)))
@example("x [ 01 ] ^ 2 + 1/٣ * y^2 - 3/6*x[1]*y")
@example("x^0")
@example("d [1 , 1]")
@example("d_y[01] + d[1,٢]")
def test_scanner_agrees_with_the_token_parser(text):
    for ctx, dual in ((None, False), (GRID, False), (GRID, True)):
        expected = token_route(text, ctx, dual)
        assert public_route(text, ctx, dual) == expected
        # the scanner takes every text the token parser accepts, so no
        # well-formed text pays for the token parser
        accepted = _Scanner(dual, ctx)._scan(text) is not None
        assert accepted == (not isinstance(expected, tuple))


# (text, the token parser's message or None when it accepts); each text
# is at least 10^5 characters
HOSTILE_LINES = {
    "star-run": ("x*" * 50000 + "!", "line 1, column 100001: unexpected character '!'"),
    "blank-run": (
        "x" + " " * 200000 + "y",
        "line 1, column 200002: expected '+', '-' or end of input, got 'y'",
    ),
    "index-run": ("x[" + ",".join(["1"] * 50000) + "]", None),
    "blank-denominator": ("1/" + " " * 100000 + "3*x", None),
}


@pytest.mark.parametrize("name", HOSTILE_LINES)
def test_hostile_lines_parse_in_linear_time(name):
    # each takes under 0.2 s on a 2-CPU host (scanner and token parser
    # together on the refused ones); a pattern or loop quadratic in the
    # length would take minutes at this size
    text, message = HOSTILE_LINES[name]
    start = time.perf_counter()
    got = public_route(text, None, False)
    assert time.perf_counter() - start < 2.0
    assert got == token_route(text, None, False)
    if message is None:
        assert len(got.terms) == 1
    else:
        assert got[0] == message


# ----------------------------------------------------------------------
# arithmetic


def test_multiply_variables():
    assert p("x", XY) * p("y", XY) == p("x*y", XY)


def test_power_binomial():
    assert p("x + y", XY) ** 2 == p("x^2 + 2*x*y + y^2", XY)


def test_scale_and_neg():
    f = p("x - y", XY)
    assert f.scale(Fraction(1, 2)) == p("1/2*x - 1/2*y", XY)
    assert -f == p("y - x", XY)


def test_cancelled_terms_are_dropped():
    # every sum that cancels leaves no zero coefficient behind
    x, y = p("x", XY), p("y", XY)
    assert (x + y + (-x)).terms == {(0, 1): 1}
    assert ((x + y) * (x - y)).terms == {(2, 0): 1, (0, 2): -1}
    assert p("x*y - y*x + x", XY).terms == {(1, 0): 1}
    op = parse_dual_form("d_x - d_y", XY)
    assert apply_operator(op, p("x*y + 1/2*x^2", XY)).terms == {(0, 1): 1}
    assert substitute(p("x*y + y^2", XY), 0, -y).terms == {}


def test_is_linear_form():
    assert p("2*x - y", XY).is_linear_form()
    assert parse_dual_form("d_x", XY).is_linear_form()
    for text in ("0", "3", "x*y", "x + y^2", "x + 1"):
        assert not p(text, XY).is_linear_form()


def test_context_mismatch_raises():
    with pytest.raises(ContextMismatchError):
        p("x", XY) + p("x", XYZ)
    with pytest.raises(ContextMismatchError):
        p("x", XY) * parse_dual_form("d_x", XY)


def test_intro_identity_n3_from_ring_ops():
    ctx = XYZ
    x, y, z = (Polynomial.variable(ctx, i) for i in range(3))
    total = (
        (x + y + z) ** 3
        - (x + y - z) ** 3
        - (x - y + z) ** 3
        + (x - y - z) ** 3
    )
    assert total.scale(Fraction(1, 24)) == x * y * z


# ----------------------------------------------------------------------
# the differentiation action


def test_apply_operator_basic_calculus():
    ctx = XY
    op = parse_dual_form("d_x", ctx)
    assert apply_operator(op, p("x^2*y", ctx)) == p("2*x*y", ctx)


def test_apply_operator_kills_low_degree():
    ctx = XY
    op = parse_dual_form("d_x^2", ctx)
    assert apply_operator(op, p("y^3", ctx)).is_zero


def test_apply_operator_iterated_power_picks_up_factorial():
    ctx = XY
    op = parse_dual_form("d_x^3", ctx)
    assert apply_operator(op, p("x^3", ctx)) == p("6", ctx)


def test_first_partial_of_det3_is_complementary_minor():
    det3 = build_determinant(3)
    ctx = det3.context
    op = parse_dual_form("d[1,1]", ctx)
    minor = p("x[2,2]*x[3,3] - x[2,3]*x[3,2]", ctx)
    assert apply_operator(op, det3) == minor


small_coeffs = st.integers(-6, 6)


@st.composite
def polys(draw, ctx=XYZ, max_degree=3, max_terms=4):
    monos = []
    for deg in range(max_degree + 1):
        monos.extend(monomial_basis(ctx, deg))
    chosen = draw(st.lists(st.sampled_from(monos), min_size=0, max_size=max_terms))
    coeffs = draw(
        st.lists(small_coeffs, min_size=len(chosen), max_size=len(chosen))
    )
    terms = {}
    for m, c in zip(chosen, coeffs):
        terms[m] = terms.get(m, 0) + c
    return Polynomial(ctx, {m: Fraction(c) for m, c in terms.items() if c})


@st.composite
def dual_polys(draw, ctx=XYZ, max_degree=2, max_terms=3):
    f = draw(polys(ctx, max_degree, max_terms))
    return DualForm(ctx, f.terms)


@settings(max_examples=50, deadline=None)
@given(dual_polys(), polys(), polys(), st.integers(-3, 3), st.integers(-3, 3))
def test_action_is_bilinear(op, f, g, a, b):
    left = apply_operator(op, f.scale(a) + g.scale(b))
    right = apply_operator(op, f).scale(a) + apply_operator(op, g).scale(b)
    assert left == right


@settings(max_examples=50, deadline=None)
@given(dual_polys(), dual_polys(), polys(), st.integers(-3, 3), st.integers(-3, 3))
def test_action_is_linear_in_the_operator(op1, op2, f, a, b):
    combined = op1.scale(a) + op2.scale(b)
    left = apply_operator(combined, f)
    right = apply_operator(op1, f).scale(a) + apply_operator(op2, f).scale(b)
    assert left == right


@settings(max_examples=50, deadline=None)
@given(dual_polys(max_degree=2), dual_polys(max_degree=2), polys(max_degree=4))
def test_action_respects_operator_products(op1, op2, f):
    assert apply_operator(op1, apply_operator(op2, f)) == apply_operator(op1 * op2, f)


@settings(max_examples=60, deadline=None)
@given(polys())
def test_format_parse_round_trip(f):
    assert parse_polynomial(format_polynomial(f), f.context) == f


SEVEN = VarContext(tuple(f"x[{i}]" for i in range(1, 8)))


@settings(max_examples=100, deadline=None)
@given(st.one_of(polys(), polys(SEVEN, max_degree=4, max_terms=8), dual_polys(SEVEN, 3, 6)))
def test_format_equals_the_dense_reference(f):
    # terms are sorted and named from their nonzero exponents only
    assert format_polynomial(f) == dense_format_polynomial(f)


def test_format_orders_terms_graded_lex():
    f = p("y + x^2 + x*y + 1", XY)
    assert str(f) == "x^2 + x*y + y + 1"


@settings(max_examples=40, deadline=None)
@given(dual_polys())
def test_dual_form_format_parse_round_trip(op):
    assert parse_dual_form(format_polynomial(op), op.context) == op


# context names of each shape, some of them spelled like dual names,
# and the dual name each is written with
DUAL_NAMES = [
    ("x", "d"),
    ("x[2]", "d[2]"),
    ("y[1,3]", "d_y[1,3]"),
    ("d", "d_d"),
    ("d_y", "d_d_y"),
    ("x_1", "d_x_1"),
    ("_z", "d__z"),
]


@pytest.mark.parametrize("name, dual", DUAL_NAMES, ids=[n for n, _ in DUAL_NAMES])
def test_dual_name_round_trip(name, dual):
    ctx = VarContext.of("w", name)
    assert str(DualForm.variable(ctx, 1)) == dual
    op = DualForm(ctx, {(0, 2): Fraction(3), (1, 1): Fraction(-1, 2), (0, 1): 1})
    assert parse_dual_form(format_polynomial(op), ctx) == op


def test_dual_round_trip_over_all_name_shapes():
    ctx = VarContext(tuple(n for n, _ in DUAL_NAMES))
    op = DualForm(ctx, {m: Fraction(i + 1) for i, m in enumerate(monomial_basis(ctx, 2))})
    assert parse_dual_form(format_polynomial(op), ctx) == op


def test_dual_name_of_an_out_of_grammar_context_name():
    op = DualForm.variable(VarContext.of("1x"), 0)
    with pytest.raises(PolyError) as err:
        format_polynomial(op)
    assert str(err.value) == "invalid variable name '1x'"


# ----------------------------------------------------------------------
# substitution / (de)homogenization


def test_substitute_simple():
    f = p("x^2 + y", XY)
    assert substitute(f, 0, p("y + 1", XY)) == p("y^2 + 3*y + 1", XY)


def test_dehomogenize_single_variable_power():
    f = p("x^2", XY)
    assert dehomogenize(f, p("x", XY)) == p("1", XY)


def test_dehomogenize_det2_at_coordinate():
    det2 = build_determinant(2)
    ctx = det2.context
    out = dehomogenize(det2, p("x[2,2]", ctx))
    assert out == p("x[1,1] - x[1,2]*x[2,1]", ctx)


def test_dehomogenize_requires_linear_direction():
    with pytest.raises(ValueError):
        dehomogenize(p("x^2", XY), p("x^2", XY))
    with pytest.raises(ValueError):
        dehomogenize(p("x^2", XY), p("0", XY))


def test_dehomogenize_requires_homogeneous_input():
    with pytest.raises(ValueError):
        dehomogenize(p("x^2 + y", XY), p("x", XY))


def test_dehomogenize_general_direction_round_trips():
    f = p("x^3 + x*y^2", XY)
    l = p("x + 2*y", XY)
    g = dehomogenize(f, l)
    assert naive_homogenize(g, l, 3) == f


@settings(max_examples=40, deadline=None)
@given(polys(max_degree=3), st.integers(0, 2))
def test_dehomogenize_round_trip_at_coordinates(f, var):
    hom = {m: c for m, c in f.terms.items() if sum(m) == 3}
    f = Polynomial(XYZ, hom)
    if f.is_zero:
        return
    l = Polynomial.variable(XYZ, var)
    assert naive_homogenize(dehomogenize(f, l), l, 3) == f


# ----------------------------------------------------------------------
# power-sum evaluation


def test_evaluate_decomposition_single_power():
    assert evaluate_decomposition([p("x", XY)], [1], 3) == p("x^3", XY)


def test_evaluate_decomposition_two_squares():
    forms = [p("x + y", XY), p("x - y", XY)]
    out = evaluate_decomposition(forms, [Fraction(1, 2), Fraction(1, 2)], 2)
    assert out == p("x^2 + y^2", XY)


_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.lists(_RATIONALS, min_size=3, max_size=3), _RATIONALS),
        min_size=1,
        max_size=4,
    ),
    st.integers(min_value=0, max_value=6),
)
def test_evaluate_decomposition_equals_the_sum_of_powers(summands, d):
    # Polynomial.__pow__ (repeated squaring) is the oracle for the
    # term-by-term multinomial expansion
    summands = [(a, c) for a, c in summands if any(a)]
    if not summands:
        return
    forms = [
        Polynomial.from_products(XYZ, ((ai, (i,)) for i, ai in enumerate(a)))
        for a, _ in summands
    ]
    coeffs = [c for _, c in summands]
    want = Polynomial.zero(XYZ)
    for l, c in zip(forms, coeffs):
        want = want + (l**d).scale(c)
    assert evaluate_decomposition(forms, coeffs, d) == want


def test_evaluate_decomposition_rejects_nonlinear():
    with pytest.raises(ValueError):
        evaluate_decomposition([p("x^2", XY)], [1], 2)


def test_evaluate_decomposition_rejects_length_mismatch():
    with pytest.raises(ValueError):
        evaluate_decomposition([p("x", XY)], [1, 2], 2)


# ----------------------------------------------------------------------
# products of variables


def test_from_products_repeats_positions_and_adds_equal_monomials():
    f = Polynomial.from_products(
        XYZ, [(3, (0, 2, 0)), (2, [1]), (-1, (1,)), (Fraction(1, 2), (2, 0, 0))]
    )
    assert f == p("7/2*x^2*z + y", XYZ)


def test_from_products_sum_that_cancels_is_zero():
    f = Polynomial.from_products(XY, [(2, (0, 1)), (-2, (1, 0))])
    assert f.is_zero and f.terms == {}


def test_from_products_empty_product_is_the_constant():
    assert Polynomial.from_products(XY, [(5, ())]) == Polynomial.constant(XY, 5)
    assert Polynomial.from_products(XY, []) == Polynomial.zero(XY)


def test_from_products_keeps_the_class():
    d = DualForm.from_products(XY, [(1, (0, 1)), (-3, (1, 1))])
    assert type(d) is DualForm
    assert d == parse_dual_form("d_x*d_y - 3*d_y^2", XY)
    assert type(DualForm.variable(XY, 1)) is DualForm


# ----------------------------------------------------------------------
# monomial enumeration


def test_monomial_basis_degree_zero():
    assert monomial_basis(XY, 0) == [(0, 0)]


def test_monomial_basis_two_vars_degree_two():
    assert monomial_basis(XY, 2) == [(2, 0), (1, 1), (0, 2)]


def test_monomial_basis_count_matches_binomial():
    ctx = VarContext(tuple(f"x[{i}]" for i in range(1, 10)))
    assert len(monomial_basis(ctx, 2)) == math.comb(10, 2) == 45


def test_monomial_basis_negative_degree_empty():
    assert monomial_basis(XY, -1) == []
