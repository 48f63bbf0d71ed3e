"""Cross-checks against sympy (skipped when sympy is unavailable).

sympy shares no code with this package, so agreement on random inputs
is strong evidence for the parser, the ring arithmetic, the
differentiation action, and the exact ranks under the catalecticants.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from apolar import (
    LinearSeries,
    QMatrix,
    VarContext,
    apply_operator,
    catalecticant_matrix,
    dehomogenize,
    hilbert_function,
    kernel_basis,
    monomial_basis,
    parse_polynomial,
    rank,
)
from apolar.catalog import (
    build_determinant,
    build_matmul_series,
    build_minors_series,
    build_permanent,
    build_pfaffian,
    build_symmetric_determinant,
    grid_context,
    matmul_context,
    skew_context,
    symmetric_context,
)
from apolar.poly import DualForm, Polynomial, format_polynomial


def to_sympy(f, symbols):
    expr = sympy.Integer(0)
    for mono, c in f.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(symbols, mono):
            if e:
                term *= s**e
        expr += term
    return sympy.expand(expr)


def symbols_for(ctx):
    return [sympy.Symbol(f"v{i}") for i in range(len(ctx))]


def random_poly(ctx, rng, degree=3, density=0.5):
    terms = {}
    for d in range(degree + 1):
        for m in monomial_basis(ctx, d):
            if rng.random() < density:
                terms[m] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return Polynomial(ctx, terms)


CTX = VarContext.of("x", "y", "z")


def test_ring_arithmetic_matches_sympy():
    rng = random.Random(99)
    syms = symbols_for(CTX)
    for _ in range(25):
        f = random_poly(CTX, rng)
        g = random_poly(CTX, rng)
        assert to_sympy(f * g, syms) == sympy.expand(to_sympy(f, syms) * to_sympy(g, syms))
        assert to_sympy(f + g, syms) == to_sympy(f, syms) + to_sympy(g, syms)
        assert to_sympy(f**2, syms) == sympy.expand(to_sympy(f, syms) ** 2)


def test_differentiation_matches_sympy():
    rng = random.Random(7)
    syms = symbols_for(CTX)
    for _ in range(25):
        f = random_poly(CTX, rng)
        op_mono = tuple(rng.randint(0, 2) for _ in range(3))
        op = DualForm(CTX, {op_mono: Fraction(1)})
        got = to_sympy(apply_operator(op, f), syms)
        expected = to_sympy(f, syms)
        for s, e in zip(syms, op_mono):
            expected = sympy.diff(expected, s, e)
        assert got == sympy.expand(expected)


def test_parser_round_trip_through_sympy():
    rng = random.Random(31)
    syms = symbols_for(CTX)
    for _ in range(20):
        f = random_poly(CTX, rng, degree=2)
        reparsed = parse_polynomial(format_polynomial(f), CTX)
        assert to_sympy(reparsed, syms) == to_sympy(f, syms)


def test_dehomogenization_matches_sympy_substitution():
    rng = random.Random(13)
    syms = symbols_for(CTX)
    for _ in range(15):
        cubic = {m: Fraction(rng.randint(-9, 9)) for m in monomial_basis(CTX, 3)}
        f = Polynomial(CTX, cubic)
        if f.is_zero:
            continue
        coeffs = [rng.randint(-3, 3) for _ in range(3)]
        if not any(coeffs):
            coeffs[0] = 1
        l = Polynomial(CTX, {})
        for i, c in enumerate(coeffs):
            if c:
                l = l + Polynomial.variable(CTX, i).scale(c)
        got = to_sympy(dehomogenize(f, l), syms)
        # substitute the eliminated variable so the direction becomes 1
        j = next(i for i, c in enumerate(coeffs) if c)
        expr = to_sympy(f, syms)
        solved = sympy.solve(
            sympy.Eq(sum(c * s for c, s in zip(coeffs, syms)), 1), syms[j]
        )[0]
        expected = sympy.expand(expr.subs(syms[j], solved))
        assert got == expected


def test_exact_rank_matches_sympy_on_random_matrices():
    rng = random.Random(5)
    for _ in range(20):
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(5)]
            for _ in range(4)
        ]
        m = QMatrix.from_rows(rows)
        sm = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows]
        )
        assert rank(m) == sm.rank()


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda r: st.integers(1, 6).flatmap(
            lambda c: st.lists(
                st.lists(
                    st.fractions(min_value=-5, max_value=5, max_denominator=4),
                    min_size=c,
                    max_size=c,
                ),
                min_size=r,
                max_size=r,
            ).map(lambda rows: (rows, c))
        )
    )
)
def test_kernel_basis_matches_sympy_nullspace(shape):
    rows, cols = shape
    m = QMatrix(len(rows), cols, tuple(x for row in rows for x in row))
    sm = sympy.Matrix(
        len(rows), cols, [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row]
    )
    expected = [
        tuple(Fraction(int(x.p), int(x.q)) for x in v) for v in sm.nullspace()
    ]
    assert kernel_basis(m) == expected


def test_hilbert_function_matches_sympy_catalecticant_ranks():
    rng = random.Random(23)
    for _ in range(8):
        terms = {m: Fraction(rng.randint(-6, 6)) for m in monomial_basis(CTX, 3)}
        f = Polynomial(CTX, terms)
        if f.is_zero:
            continue
        W = LinearSeries.of_form(f)
        dims = []
        for t in range(4):
            cat = catalecticant_matrix(W, t)
            sm = sympy.Matrix(
                [
                    [
                        sympy.Rational(x.numerator, x.denominator)
                        for x in cat.row(i)
                    ]
                    for i in range(cat.rows)
                ]
            )
            dims.append(sm.rank() if cat.rows else 0)
        assert dims == list(hilbert_function(W))


def test_determinant_families_match_sympy():
    for n in (2, 3):
        ctx = grid_context(n, n)
        syms = symbols_for(ctx)
        M = sympy.Matrix(
            [[syms[ctx.position(f"x[{i},{j}]")] for j in range(1, n + 1)] for i in range(1, n + 1)]
        )
        assert to_sympy(build_determinant(n), syms) == sympy.expand(M.det())
        assert to_sympy(build_permanent(n), syms) == sympy.expand(M.per())


def test_symmetric_determinant_matches_sympy():
    for n in (2, 3):
        ctx = symmetric_context(n)
        syms = symbols_for(ctx)

        def entry(i, j):
            a, b = sorted((i, j))
            return syms[ctx.position(f"x[{a},{b}]")]

        M = sympy.Matrix(
            [[entry(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
        )
        assert to_sympy(build_symmetric_determinant(n), syms) == sympy.expand(M.det())


def test_pfaffian_square_matches_sympy_determinant():
    for n in (1, 2, 3):
        ctx = skew_context(n)
        syms = symbols_for(ctx)

        def entry(i, j):
            if i == j:
                return sympy.Integer(0)
            a, b = sorted((i, j))
            s = syms[ctx.position(f"x[{a},{b}]")]
            return s if i < j else -s

        M = sympy.Matrix(
            [[entry(i, j) for j in range(1, 2 * n + 1)] for i in range(1, 2 * n + 1)]
        )
        pf = build_pfaffian(n)
        assert to_sympy(pf * pf, syms) == sympy.expand(M.det())


@pytest.mark.parametrize("m, n, d", [(2, 3, 2), (3, 3, 2), (3, 4, 2), (3, 4, 3), (2, 2, 1)])
def test_minors_series_matches_sympy_minors(m, n, d):
    # row sets, then column sets, in lexicographic order
    ctx = grid_context(m, n)
    syms = symbols_for(ctx)
    M = sympy.Matrix(
        [[syms[ctx.position(f"x[{i},{j}]")] for j in range(1, n + 1)] for i in range(1, m + 1)]
    )
    want = [
        sympy.expand(M.extract(list(rows), list(cols)).det())
        for rows in itertools.combinations(range(m), d)
        for cols in itertools.combinations(range(n), d)
    ]
    assert [to_sympy(f, syms) for f in build_minors_series(m, n, d)] == want


@pytest.mark.parametrize("p, q, r", [(2, 2, 2), (2, 3, 2), (1, 3, 2), (3, 1, 2)])
def test_matmul_series_matches_the_entries_of_a_sympy_product(p, q, r):
    # the entries (i, k) of X * Y, row by row
    ctx = matmul_context(p, q, r)
    syms = symbols_for(ctx)
    X = sympy.Matrix(
        [[syms[ctx.position(f"x[{i},{j}]")] for j in range(1, q + 1)] for i in range(1, p + 1)]
    )
    Y = sympy.Matrix(
        [[syms[ctx.position(f"y[{j},{k}]")] for k in range(1, r + 1)] for j in range(1, q + 1)]
    )
    XY = X * Y
    want = [sympy.expand(XY[i, k]) for i in range(p) for k in range(r)]
    assert [to_sympy(f, syms) for f in build_matmul_series(p, q, r)] == want
