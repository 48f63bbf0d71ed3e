"""The Bernardi-Ranestad upper bound, and every bound of a report against
ranks known in closed form.

At a coordinate direction ``l = c * x_j`` the bound dehomogenizes on
packed keys; these tests hold it to the general route
(``dehomogenize`` then ``diff_closure_dim``), to the naive closure of
``tests/oracles.py`` with no ``dehomogenize`` reachable, and to the
cactus ranks of monomials (Ranestad and Schreyer, J. Algebra 346 (2011))
and of quadrics (the rank of their matrix).  Every bound of a report is
also held to the Waring ranks of monomials and of sums of monomials in
disjoint variables (Carlini, Catalisano and Geramita, J. Algebra 370
(2012)), and to the cactus and Waring ranks of binary forms, read off a
Hankel kernel computed with sympy.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apolar.bounds
from apolar import (
    ContextMismatchError,
    LinearSeries,
    Polynomial,
    PolyError,
    VarContext,
    bernardi_ranestad_upper,
    bound_report,
    dehomogenize,
    diff_closure_dim,
    monomial_basis,
    parse_polynomial,
)
from apolar.bounds import KIND_LOWER_CACTUS, KIND_LOWER_WARING, KIND_UPPER_CACTUS
from apolar.catalog import build, parse_family
from apolar.cli import main
from oracles import naive_closure_dim, naive_rank

XY = VarContext.of("x", "y")
SCALES = (1, -1, 2, Fraction(1, 3))


def coordinate(ctx, j, c=1):
    """The linear form ``c * x_j``."""
    return Polynomial(ctx, {tuple(int(i == j) for i in range(len(ctx))): c})


def general_route(F, l):
    return diff_closure_dim(dehomogenize(F, l))


# ----------------------------------------------------------------------
# the packed route equals the general one


@st.composite
def forms(draw):
    """A nonzero form in 1..4 variables of degree 1..5, with integer and
    fractional coefficients."""
    n = draw(st.integers(1, 4))
    ctx = VarContext(tuple(f"x[{i}]" for i in range(1, n + 1)))
    monos = monomial_basis(ctx, draw(st.integers(1, 5)))
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=4).filter(bool)
    return Polynomial(
        ctx, draw(st.dictionaries(st.sampled_from(monos), coeff, min_size=1, max_size=8))
    )


@settings(max_examples=60, deadline=None)
@given(forms())
def test_packed_route_equals_the_general_route_at_every_coordinate(F):
    for j in range(len(F.context)):
        for c in SCALES:
            l = coordinate(F.context, j, c)
            assert bernardi_ranestad_upper(F, l) == general_route(F, l), (j, c)


@pytest.mark.parametrize(
    "family",
    ["det:2", "det:3", "perm:3", "pf:3", "symdet:3", "monprod:5", "minors:3,3,2",
     "matmul:2,2,2"],
)
def test_packed_route_equals_the_general_route_on_every_coordinate_of_a_family(family):
    F = build(parse_family(family)).reduced_basis[0]
    for j in range(len(F.context)):
        l = coordinate(F.context, j)
        assert bernardi_ranestad_upper(F, l) == general_route(F, l), F.context.names[j]


@pytest.mark.parametrize("at", ["x", "y"])
@pytest.mark.parametrize("c", SCALES)
def test_packed_route_of_a_high_exponent(at, c):
    # at y the closure is that of x^2000, scaled by c^-3; at x that of y^3
    F = parse_polynomial("x^2000*y^3", XY)
    l = coordinate(XY, XY.position(at), c)
    value = bernardi_ranestad_upper(F, l)
    assert value == general_route(F, l) == (2001 if at == "y" else 4)


def test_packed_route_of_det_4_at_a_scaled_corner():
    F = build(parse_family("det:4")).reduced_basis[0]
    l = coordinate(F.context, F.context.position("x[4,4]"), 3)
    assert bernardi_ranestad_upper(F, l) == general_route(F, l) == math.comb(8, 4) - 2


OTHER = VarContext.of("x", "z")


@pytest.mark.parametrize(
    "F, l, error",
    [
        (parse_polynomial("x^2 + y", XY), coordinate(XY, 0), PolyError),
        (parse_polynomial("x^2*y", XY), parse_polynomial("x^2", XY), PolyError),
        (parse_polynomial("x^2*y", XY), coordinate(OTHER, 0), ContextMismatchError),
        (Polynomial.zero(XY), coordinate(XY, 1), ValueError),
    ],
    ids=["non-homogeneous form", "non-linear direction", "other context", "zero form"],
)
def test_packed_route_raises_as_the_general_route(F, l, error):
    with pytest.raises(error) as general:
        general_route(F, l)
    with pytest.raises(error) as packed:
        bernardi_ranestad_upper(F, l)
    assert type(packed.value) is type(general.value)
    assert str(packed.value) == str(general.value)


def set_to_one(F, name):
    """F with the variable ``name`` set to 1, summed term by term."""
    j = F.context.position(name)
    terms = {}
    for m, c in F.terms.items():
        m = m[:j] + (0,) + m[j + 1 :]
        terms[m] = terms.get(m, 0) + c
    return Polynomial(F.context, terms)


def test_bound_reports_never_dehomogenize_through_polynomials(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the report dehomogenized through Polynomial arithmetic")

    monkeypatch.setattr(apolar.bounds, "dehomogenize", refuse)
    for family, value in (("det:3", 18), ("monprod:5", 16)):
        W = build(parse_family(family))
        entry = bound_report(W, family, trials=1).entry("bernardi_ranestad_upper")
        F = W.reduced_basis[0]
        assert entry.value == value
        assert naive_closure_dim(set_to_one(F, entry.metadata["dehomogenized_at"])) == value

    path = tmp_path / "form.txt"
    path.write_text("x^2*y + x^2*z - y*z^2\n", encoding="utf-8")
    assert main(["bounds", "--form", str(path), "--trials", "1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    [entry] = [b for b in doc["bounds"] if b["name"] == "bernardi_ranestad_upper"]
    at = entry["metadata"]["dehomogenized_at"]
    F = parse_polynomial("x^2*y + x^2*z - y*z^2")
    assert at == "z"
    assert entry["integer_value"] == naive_closure_dim(set_to_one(F, at))


# ----------------------------------------------------------------------
# every bound against ranks known in closed form


def check_ranks(W, cactus, waring):
    """Every bound of W's report on the right side of its ranks, and the
    brackets around them.  A cactus rank of None is not known: the
    cactus lower bounds are then held to the Waring rank above it."""
    report = bound_report(W, "form", trials=2)
    for b in report.bounds:
        if b.kind == KIND_LOWER_CACTUS:
            assert b.value <= (waring if cactus is None else cactus), b.name
        elif b.kind == KIND_UPPER_CACTUS and cactus is not None:
            assert b.value >= cactus, b.name
        elif b.kind == KIND_LOWER_WARING:
            assert b.value <= waring, b.name
    brackets = report.brackets()
    for rank, known in (("cactus_rank", cactus), ("waring_rank", waring)):
        lower, upper = brackets[rank]["lower"], brackets[rank]["upper"]
        if known is not None:
            assert lower <= known and (upper is None or known <= upper), rank
    return report


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4))
def test_bounds_of_a_monomial_bracket_its_cactus_rank(exponents):
    # x_0^a_0 ... x_m^a_m, exponents sorted a_0 <= ... <= a_m: cactus rank
    # prod_{i<m} (a_i + 1) (Ranestad-Schreyer), Waring rank
    # prod_{i>0} (a_i + 1) (Carlini, Catalisano and Geramita)
    n = len(exponents)
    ctx = VarContext(tuple(f"x[{i}]" for i in range(n)))
    W = LinearSeries.of_form(Polynomial(ctx, {tuple(exponents): 1}))
    a = sorted(exponents)
    cactus = math.prod(e + 1 for e in a[:-1])
    report = check_ranks(W, cactus, math.prod(e + 1 for e in a[1:]))
    if exponents[-1] == a[-1]:
        # the report sets the last variable to 1; holding a top exponent,
        # it leaves the closure of the other factors, of dimension equal
        # to the cactus rank, and Ranestad-Schreyer meets it from below
        assert report.entry("bernardi_ranestad_upper").value == cactus
        assert report.brackets()["cactus_rank"] == {"lower": cactus, "upper": cactus}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.integers(-3, 3), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)
).filter(any))
def test_bounds_of_a_quadric_bracket_the_rank_of_its_matrix(upper):
    # the upper triangle of a symmetric matrix M, row by row; the quadric
    # x^T M x has every rank equal to rank M
    n = math.isqrt(2 * len(upper))
    M = [[0] * n for _ in range(n)]
    entries = iter(upper)
    for i in range(n):
        for k in range(i, n):
            M[i][k] = M[k][i] = next(entries)
    ctx = VarContext(tuple(f"x[{i}]" for i in range(n)))
    terms = {}
    for i in range(n):
        for k in range(n):
            m = tuple((i == v) + (k == v) for v in range(n))
            terms[m] = terms.get(m, 0) + M[i][k]
    r = naive_rank(M)
    check_ranks(LinearSeries.of_form(Polynomial(ctx, terms)), r, r)


@st.composite
def coprime_monomials(draw):
    """Monomials of one degree d in disjoint sets of variables, each an
    exponent list (a composition of d), with a nonzero coefficient."""
    d = draw(st.integers(1, 5))
    out = []
    for _ in range(draw(st.integers(1, 3))):
        cuts = sorted(draw(st.sets(st.integers(1, d - 1), max_size=2))) if d > 1 else []
        exponents = [b - a for a, b in zip([0, *cuts], [*cuts, d])]
        out.append((exponents, draw(st.sampled_from([1, -1, 2, Fraction(1, 3)]))))
    return out


@settings(max_examples=40, deadline=None)
@given(coprime_monomials())
def test_bounds_of_a_sum_of_coprime_monomials_stay_below_its_waring_rank(summands):
    # the Waring rank of a sum of monomials in disjoint variables is the
    # sum of theirs, prod_{i>0} (a_i + 1) with a_0 the smallest exponent
    # (Carlini, Catalisano and Geramita, J. Algebra 370 (2012)); the
    # cactus rank of the sum is not known in closed form
    n = sum(len(exponents) for exponents, _ in summands)
    ctx = VarContext(tuple(f"x[{i}]" for i in range(n)))
    terms, start = {}, 0
    for exponents, c in summands:
        terms[(0,) * start + tuple(exponents) + (0,) * (n - start - len(exponents))] = c
        start += len(exponents)
    waring = sum(math.prod(e + 1 for e in sorted(a)[1:]) for a, _ in summands)
    check_ranks(LinearSeries.of_form(Polynomial(ctx, terms)), None, waring)


def binary_ranks(coeffs):
    """Cactus and Waring rank of ``sum_i coeffs[i] x^(d-i) y^i``, from the
    lower-degree generator g_1 of its annihilator, computed with sympy
    alone.  ``d_x^(r-j) d_y^j`` sends ``x^(d-i) y^i`` to
    ``(d-i)! i! / ((d-r-k)! k!)`` times ``x^(d-r-k) y^k``, k = i - j, so
    with ``h_i = coeffs[i] (d-i)! i!`` the degree-r annihilator is the
    kernel of the Hankel matrix ``(h_(k+j))``, k = 0..d-r, j = 0..r.  Its
    first nonzero kernel, at r = deg g_1, gives the cactus rank r; the
    Waring rank is r if g_1 is squarefree and d + 2 - r otherwise (Comas
    and Seiguer, Found. Comput. Math. 11 (2011)).  At r = d + 2 - r the
    kernel is a pencil, and both answers are r."""
    sympy = pytest.importorskip("sympy")
    d = len(coeffs) - 1
    h = [c * math.factorial(d - i) * math.factorial(i) for i, c in enumerate(coeffs)]
    r = next(
        r for r in range(1, d + 2)
        if (kernel := sympy.Matrix(d - r + 1, r + 1, lambda k, j: h[k + j]).nullspace())
    )
    x, y = sympy.symbols("x y")
    g = sum(c * x ** (r - j) * y**j for j, c in enumerate(kernel[0]))
    _, factors = sympy.Poly(g, x, y).sqf_list()
    squarefree = all(m == 1 for _, m in factors)
    return r, r if squarefree else d + 2 - r


def test_binary_ranks_of_known_forms():
    assert binary_ranks([0, 0, 1, 0, 0, 0]) == (3, 4)  # x^3 y^2
    assert binary_ranks([0, 1, 0, 0]) == (2, 3)  # x^2 y
    assert binary_ranks([1, 0, 0, 0, 1]) == (2, 2)  # x^4 + y^4
    assert binary_ranks([1, 4, 6, 4, 1]) == (1, 1)  # (x + y)^4
    assert binary_ranks([1, -3, 0, 0]) == (2, 3)  # x^2 (x - 3y), as x^2 y


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=2, max_size=9).filter(any))
def test_bounds_of_a_binary_form_bracket_its_ranks(coeffs):
    d = len(coeffs) - 1
    F = Polynomial(XY, {(d - i, i): c for i, c in enumerate(coeffs) if c})
    cactus, waring = binary_ranks(coeffs)
    check_ranks(LinearSeries.of_form(F), cactus, waring)
