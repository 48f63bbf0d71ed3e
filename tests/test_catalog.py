import math
from fractions import Fraction

import pytest

from apolar import catalog
from apolar import (
    NoClosedFormError,
    apply_operator,
    build,
    closed_form_hilbert,
    closed_form_table,
    evaluate_decomposition,
    hilbert_function,
    matmul_bound,
    minimal_generator_degrees,
    monomial_decomposition,
    parse_dual_form,
    parse_family,
    parse_polynomial,
)
from apolar.catalog import (
    FamilySpec,
    build_monomial_product,
    build_pfaffian,
    canonical_partial,
    catalan,
    double_factorial,
    narayana,
    pfaffian_on,
    skew_context,
    verify_table_column,
)
from apolar.catalog import (
    LABEL_CR_UPPER,
    LABEL_DERIVATIVE,
    LABEL_LT,
    LABEL_R_UPPER,
    LABEL_RSS,
    LABEL_SYLVESTER,
)


def test_family_parsing_and_validation():
    assert parse_family("det:3") == FamilySpec("det", (3,))
    assert parse_family("minors:3,4,2") == FamilySpec("minors", (3, 4, 2))
    for bad in ("det", "det:", "det:x", "nosuch:3", "minors:3,2,3", "det:0", "pf:2,2"):
        with pytest.raises(ValueError):
            parse_family(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "nosuch:3",
            "unknown family 'nosuch'; expected one of "
            "det, perm, pf, symdet, monprod, minors, matmul",
        ),
        ("det", "malformed form id 'det'; expected family:params"),
        ("det:", "malformed form id 'det:'; expected family:params"),
        ("det:x", "malformed parameters 'x' in form id 'det:x'"),
        ("det:0", "family parameters must be positive"),
        ("pf:2,2", "pf takes one parameter"),
        ("minors:3,3", "minors takes parameters M,N,D"),
        ("minors:3,2,3", "minors parameters must satisfy D <= M <= N"),
        ("matmul:1,2", "matmul takes parameters P,Q,R"),
    ],
)
def test_family_error_messages(text, message):
    with pytest.raises(ValueError) as exc:
        parse_family(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("family", list(catalog._FAMILIES))
def test_every_family_record(family, size):
    """Each record builds, names a linear direction over its own context,
    counts the variables of that context, and its closed form (if any) is
    the computed Hilbert function."""
    arity = len(catalog._FAMILIES[family].params.split(","))
    spec = FamilySpec(family, (size,) * arity)
    W = build(spec)
    assert catalog.variable_count(spec) == len(W.context)
    partial = canonical_partial(spec, W)
    assert partial.context == W.context and partial.is_linear_form()
    if family == "perm":
        with pytest.raises(NoClosedFormError):
            closed_form_hilbert(spec)
    else:
        assert closed_form_hilbert(spec) == hilbert_function(W)


@pytest.mark.parametrize("family", list(catalog._FAMILIES))
def test_family_size_is_terms_times_variables(family):
    """The size factors multiply to the exponents the builder writes:
    one per variable for each term it enumerates."""
    record = catalog._FAMILIES[family]
    params = {"N": (3,), "M,N,D": (2, 3, 2), "P,Q,R": (2, 3, 2)}[record.params]
    forms = record.build(*params)
    terms = sum(len(f.terms) for f in forms)
    if family == "symdet":  # its 3! permutations merge into 5 distinct terms
        terms = math.factorial(3)
    assert math.prod(record.size(*params)) == len(forms[0].context) * terms


@pytest.mark.parametrize("fid", ["det:3", "perm:3", "pf:2", "minors:2,3,2", "matmul:2,3,2"])
def test_check_size_refuses_one_over_either_limit(fid):
    spec = parse_family(fid)
    size = math.prod(catalog._FAMILIES[spec.family].size(*spec.params))
    length = 10**9 if spec.family == "perm" else sum(closed_form_hilbert(spec))
    catalog.check_size(spec, size, length)
    with pytest.raises(ValueError) as exc:
        catalog.check_size(spec, size - 1, length)
    assert str(exc.value) == (
        f"builtin {fid!r} is too large: its terms times its variables are over "
        f"the limit of {size - 1}"
    )
    if spec.family != "perm":
        with pytest.raises(ValueError) as exc:
            catalog.check_size(spec, size, length - 1)
        assert str(exc.value) == (
            f"builtin {fid!r} is too large: its apolar length is over the limit "
            f"of {length - 1}"
        )


def test_determinant_term_count_and_degree():
    for n in (2, 3, 4):
        W = build(parse_family(f"det:{n}"))
        F = W.reduced_basis[0]
        assert len(F.terms) == math.factorial(n)
        assert F.homogeneous_degree() == n


def test_permanent_has_positive_signs():
    W = build(parse_family("perm:2"))
    F = W.reduced_basis[0]
    assert F == parse_polynomial("x[1,1]*x[2,2] + x[1,2]*x[2,1]", F.context)


def test_pfaffian_two():
    W = build(parse_family("pf:2"))
    F = W.reduced_basis[0]
    expected = parse_polynomial(
        "x[1,2]*x[3,4] - x[1,3]*x[2,4] + x[1,4]*x[2,3]", F.context
    )
    assert F == expected


def test_pfaffian_term_count_is_double_factorial():
    for n in (1, 2, 3):
        F = build_pfaffian(n)
        assert len(F.terms) == double_factorial(2 * n - 1)


def test_pfaffian_squared_is_skew_determinant():
    # pf^2 = det of the skew matrix, expanded over the independent
    # coordinates with x[j,i] = -x[i,j]
    import itertools

    for n in (1, 2, 3):
        ctx = skew_context(n)
        F = build_pfaffian(n)
        size = 2 * n
        terms = {}
        width = len(ctx)
        for perm in itertools.permutations(range(size)):
            mono = [0] * width
            sign = 1
            ok = True
            inv = sum(
                1
                for i in range(size)
                for j in range(i + 1, size)
                if perm[i] > perm[j]
            )
            sign *= -1 if inv % 2 else 1
            for i, j in enumerate(perm):
                if i == j:
                    ok = False
                    break
                a, b = min(i, j) + 1, max(i, j) + 1
                if i > j:
                    sign = -sign
                mono[ctx.position(f"x[{a},{b}]")] += 1
            if not ok:
                continue
            key = tuple(mono)
            terms[key] = terms.get(key, 0) + sign
        det_skew = type(F)(ctx, {m: Fraction(c) for m, c in terms.items() if c})
        assert F * F == det_skew


def test_pfaffian_laplace_expansion_derivatives():
    # a first partial of a Pfaffian is (up to sign) the Pfaffian with
    # the two matching rows and columns removed
    for n in (2, 3):
        ctx = skew_context(n)
        F = build_pfaffian(n)
        indices = tuple(range(1, 2 * n + 1))
        for i in range(1, 2 * n + 1):
            for j in range(i + 1, 2 * n + 1):
                dl = parse_dual_form(f"d[{i},{j}]", ctx)
                got = apply_operator(dl, F)
                rest = tuple(k for k in indices if k not in (i, j))
                sub = pfaffian_on(ctx, rest)
                sign = (-1) ** (i + j + 1)
                assert got == sub.scale(sign), (n, i, j)


def test_symdet_two():
    W = build(parse_family("symdet:2"))
    F = W.reduced_basis[0]
    assert F == parse_polynomial("x[1,1]*x[2,2] - x[1,2]^2", F.context)


def test_minors_series_dimension():
    W = build(parse_family("minors:3,4,2"))
    assert len(W.forms) == math.comb(3, 2) * math.comb(4, 2)
    assert W.dim == len(W.forms)


def test_matmul_builds_bilinear_forms():
    W = build(parse_family("matmul:1,1,1"))
    F = W.reduced_basis[0]
    assert F == parse_polynomial("x[1,1]*y[1,1]", F.context)
    # z coordinates are declared but unused
    assert "z[1,1]" in F.context.names


def test_closed_form_hilbert_values():
    assert list(closed_form_hilbert(parse_family("det:4"))) == [1, 16, 36, 16, 1]
    assert sum(closed_form_hilbert(parse_family("det:4"))) == 70
    assert list(closed_form_hilbert(parse_family("pf:3"))) == [1, 15, 15, 1]
    assert sum(closed_form_hilbert(parse_family("pf:3"))) == 32
    assert sum(closed_form_hilbert(parse_family("matmul:2,2,2"))) == 13
    assert sum(closed_form_hilbert(parse_family("symdet:3"))) == catalan(4) == 14


def test_closed_form_hilbert_permanent_errors():
    with pytest.raises(NoClosedFormError) as exc:
        closed_form_hilbert(parse_family("perm:3"))
    assert str(exc.value) == "no closed-form Hilbert function for 'perm'"


def test_oracle_agreement_small_sizes():
    cases = (
        ["det:2", "det:3", "pf:2", "symdet:2", "symdet:3", "monprod:3", "monprod:5"]
        + ["minors:2,2,1", "minors:2,3,2", "minors:3,3,1", "minors:3,3,3"]
        + ["matmul:1,1,1", "matmul:2,2,2", "matmul:2,3,2"]
    )
    for fid in cases:
        spec = parse_family(fid)
        assert list(hilbert_function(build(spec))) == list(
            closed_form_hilbert(spec)
        ), fid


def test_delta_two_for_matrix_families():
    for fid in ("det:2", "det:3", "pf:2", "pf:3", "symdet:2", "symdet:3"):
        gd = minimal_generator_degrees(build(parse_family(fid)))
        assert gd.delta == 2, fid
        assert set(gd.counts) == {2}, fid


def test_minors_generator_degrees():
    # maximal minors are quadric-generated; square non-maximal minors
    # pick up cubic generators (the dual (d+1)-minors: 1 for the 3x3
    # 2-minors, C(4,3)^2 = 16 for the 4x4 2-minors), verified against a
    # dense-elimination oracle when frozen
    assert minimal_generator_degrees(build(parse_family("minors:2,3,2"))).counts == {2: 18}
    assert minimal_generator_degrees(build(parse_family("minors:3,4,3"))).counts == {2: 60}
    assert minimal_generator_degrees(build(parse_family("minors:3,3,2"))).counts == {2: 36, 3: 1}


def test_narayana_rows_sum_to_catalan():
    for n in range(1, 9):
        assert sum(narayana(n, k) for k in range(1, n + 1)) == catalan(n)


def test_monomial_decomposition_identity():
    for n in range(1, 7):
        forms, coeffs = monomial_decomposition(n)
        assert len(forms) == 2 ** (n - 1)
        target = build_monomial_product(n)
        assert evaluate_decomposition(forms, coeffs, n) == target


def test_monomial_decomposition_n2_halves():
    forms, coeffs = monomial_decomposition(2)
    assert coeffs == [Fraction(1, 4), Fraction(-1, 4)]


def test_matmul_bound_values():
    assert matmul_bound(2, 2, 2) == (9, 5)
    assert matmul_bound(1, 1, 1) == (2, 1)
    assert matmul_bound(3, 3, 3) == (22, 11)


def test_canonical_partials_are_nonzero_linear():
    for fid in ("det:3", "pf:2", "symdet:3", "monprod:4", "matmul:2,2,2"):
        spec = parse_family(fid)
        W = build(spec)
        dl = canonical_partial(spec, W)
        assert dl.degree() == 1 and not dl.is_zero


# ----------------------------------------------------------------------
# reference tables


def test_table_det_column_n8():
    doc = closed_form_table("det", 8)
    col = {row.label: row.values[-1] for row in doc.rows}
    assert col[LABEL_SYLVESTER] == 4900
    assert col[LABEL_LT] == 4939
    assert col[LABEL_RSS] == 6435
    assert col[LABEL_DERIVATIVE] == 9438
    assert col[LABEL_CR_UPPER] == 12868
    assert col[LABEL_R_UPPER] == 3584000


def test_table_pf_column_n5():
    doc = closed_form_table("pf", 5)
    col = {row.label: row.values[-1] for row in doc.rows}
    assert col[LABEL_SYLVESTER] == 210
    assert col[LABEL_RSS] == 256
    assert col[LABEL_DERIVATIVE] == 384
    assert col[LABEL_CR_UPPER] == 512
    assert col[LABEL_R_UPPER] == 15120


def test_table_symdet_column_n7():
    doc = closed_form_table("symdet", 7)
    col = {row.label: row.values[-1] for row in doc.rows}
    assert col[LABEL_SYLVESTER] == 490
    assert col[LABEL_RSS] == 715
    assert col[LABEL_DERIVATIVE] == 1001
    assert col[LABEL_CR_UPPER] == 1430


def test_table_symdet_has_fractional_cells():
    doc = closed_form_table("symdet", 6)
    rss = next(r for r in doc.rows if r.label == LABEL_RSS)
    assert rss.values[0] == Fraction(5, 2)
    assert rss.values[-1] == Fraction(429, 2)


def test_table_rejects_unknown_family_and_small_n():
    with pytest.raises(ValueError):
        closed_form_table("perm", 4)
    with pytest.raises(ValueError):
        closed_form_table("det", 1)


def test_verify_columns_match_closed_forms():
    for family in ("det", "pf", "symdet"):
        doc = closed_form_table(family, 3)
        for n in (2, 3):
            recomputed = verify_table_column(family, n)
            for row in doc.rows:
                if row.label in recomputed:
                    assert recomputed[row.label] == row.values[n - 2], (family, n, row.label)
